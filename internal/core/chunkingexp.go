package core

import (
	"fmt"

	"cloudsync/internal/chunker"
	"cloudsync/internal/content"
	"cloudsync/internal/dedup"
	"cloudsync/internal/delta"
	"cloudsync/internal/metrics"
	"cloudsync/internal/parallel"
)

// ChunkingCell is one row of the chunking-discipline ablation: the
// upload volume a chunk-addressed store needs as a file evolves
// through insert-heavy edits.
type ChunkingCell struct {
	Scheme string
	// Uploaded is the total new-chunk (or delta) volume across all
	// versions after the first.
	Uploaded int64
	// FirstVersion is the volume of the initial upload (equal across
	// schemes up to framing).
	FirstVersion int64
}

// chunkScheme is one chunk-store discipline under ablation. Chunking
// runs through content.CDCFingerprints / chunker so repeated
// fingerprinting of the same blob is a cache hit.
type chunkScheme struct {
	name   string
	chunks func(b *content.Blob) []chunker.Block
}

// ChunkingAblation quantifies the discussion the paper cites ([19],
// [39]) but sidesteps: how much better content-defined chunking and
// rolling-hash delta sync handle *insertions* than the "simple and
// natural" fixed-size blocking used for the Fig. 5 analysis. Each
// version inserts editSize random bytes at a pseudo-random offset; the
// upload cost of a version is the volume of chunks the store has not
// seen yet (or, for rsync, the encoded delta).
func ChunkingAblation(versions int, fileSize int64, editSize int) []ChunkingCell {
	if versions < 2 || fileSize <= 0 || fileSize > content.MaterializeLimit || editSize <= 0 {
		panic(fmt.Sprintf("core: ChunkingAblation(%d, %d, %d) out of range", versions, fileSize, editSize))
	}
	// Build the version chain once.
	chain := make([][]byte, versions)
	chain[0] = content.Random(fileSize, nextSeed()).Bytes()
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod int64) int64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int64(state % uint64(mod))
	}
	for i := 1; i < versions; i++ {
		prev := chain[i-1]
		off := next(int64(len(prev)) + 1)
		ins := content.Random(int64(editSize), nextSeed()).Bytes()
		v := make([]byte, 0, len(prev)+editSize)
		v = append(v, prev[:off]...)
		v = append(v, ins...)
		v = append(v, prev[off:]...)
		chain[i] = v
	}
	blobs := make([]*content.Blob, versions)
	for i, data := range chain {
		blobs[i] = content.FromBytes(data)
	}

	const fixedBlock = 8 << 10
	schemes := []chunkScheme{
		{"fixed 8 KB blocks", func(b *content.Blob) []chunker.Block {
			return chunker.Fixed(b.Bytes(), fixedBlock)
		}},
		{"content-defined (2/8/32 KB)", func(b *content.Blob) []chunker.Block {
			return content.CDCFingerprints(b, 2<<10, 8<<10, 32<<10)
		}},
	}

	// The chain is read-only from here on; the scheme evaluations (each
	// with its own seen-set) and the rsync pass run on the worker pool.
	evals := make([]func() ChunkingCell, 0, len(schemes)+1)
	for _, s := range schemes {
		s := s
		evals = append(evals, func() ChunkingCell {
			seen := make(map[dedup.Fingerprint]struct{})
			cell := ChunkingCell{Scheme: s.name}
			for i, b := range blobs {
				var uploaded int64
				for _, blk := range s.chunks(b) {
					if _, dup := seen[blk.Sum]; !dup {
						seen[blk.Sum] = struct{}{}
						uploaded += int64(blk.Size)
					}
				}
				if i == 0 {
					cell.FirstVersion = uploaded
				} else {
					cell.Uploaded += uploaded
				}
			}
			return cell
		})
	}
	evals = append(evals, func() ChunkingCell {
		// rsync-style delta against the previous version (requires the
		// server to hold a mutable basis rather than a chunk store).
		rs := ChunkingCell{Scheme: "rsync delta (8 KB)"}
		rs.FirstVersion = int64(len(chain[0]))
		for i := 1; i < versions; i++ {
			sig := delta.Sign(chain[i-1], fixedBlock)
			d := delta.Compute(sig, chain[i])
			rs.Uploaded += int64(d.WireSize() + sig.WireSize())
		}
		return rs
	})
	return parallel.Map(evals, func(_ int, eval func() ChunkingCell) ChunkingCell {
		return eval()
	})
}

// RenderChunking formats the ablation.
func RenderChunking(cells []ChunkingCell, versions int, fileSize int64, editSize int) string {
	tb := metrics.Table{Header: []string{"Scheme", "First upload", "Updates total", "Per edit"}}
	for _, c := range cells {
		per := c.Uploaded / int64(versions-1)
		tb.AddRow(c.Scheme, metrics.HumanBytes(c.FirstVersion),
			metrics.HumanBytes(c.Uploaded), metrics.HumanBytes(per))
	}
	return fmt.Sprintf(
		"Chunking-discipline ablation: %d versions of a %s file, %s inserted per edit\n%s",
		versions, metrics.HumanBytes(fileSize), metrics.HumanBytes(int64(editSize)), tb.String())
}
