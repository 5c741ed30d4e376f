// Package chunker splits file content into blocks and fingerprints
// them. It provides the two chunking disciplines the paper discusses:
// the "simple and natural way" — fixed-size blocks from the head of the
// file, which is what the trace's 128 KB…16 MB block hashes and the
// deduplication analysis of § 5.2 use — and content-defined chunking
// with a rolling hash, the more elaborate scheme the paper cites
// ([19, 39]) but deliberately does not require.
package chunker

import (
	"crypto/md5"
	"fmt"
	"io"
	"slices"
)

// Block is one chunk of a file.
type Block struct {
	// Off is the byte offset of the block in the file.
	Off int64
	// Size is the block length (the final block may be short).
	Size int
	// Sum is the block's MD5 fingerprint.
	Sum [md5.Size]byte
}

// StandardBlockSizes are the block granularities recorded per file in
// the paper's trace (Table 3): 128 KB through 16 MB in powers of two.
var StandardBlockSizes = []int{
	128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20,
}

// Fixed splits data into fixed-size blocks starting at the head and
// fingerprints each. The final block may be shorter. Empty data yields
// no blocks.
func Fixed(data []byte, blockSize int) []Block {
	checkBlockSize(blockSize)
	if len(data) == 0 {
		return nil
	}
	blocks := make([]Block, 0, (len(data)+blockSize-1)/blockSize)
	for off := 0; off < len(data); off += blockSize {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		blocks = append(blocks, Block{
			Off:  int64(off),
			Size: end - off,
			Sum:  md5.Sum(data[off:end]),
		})
	}
	return blocks
}

// FingerprintReader streams r and returns the MD5 fingerprint of each
// fixed-size block, without holding the whole input in memory. Used by
// the trace tooling, whose records carry block hashes for files far
// larger than any in-memory buffer.
func FingerprintReader(r io.Reader, blockSize int) ([][md5.Size]byte, error) {
	checkBlockSize(blockSize)
	var sums [][md5.Size]byte
	buf := make([]byte, blockSize)
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			sums = append(sums, md5.Sum(buf[:n]))
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return sums, nil
		}
		if err != nil {
			return nil, fmt.Errorf("chunker: reading block %d: %w", len(sums), err)
		}
	}
}

// Boundaries returns the fixed-size block layout of a file of the
// given size without fingerprinting anything: the same half-open ranges
// Fixed would hash. Callers that only need the geometry (chunk-object
// stores, dirty-range intersection) use this to skip the MD5 work.
func Boundaries(size int64, blockSize int) []Range {
	checkBlockSize(blockSize)
	if size <= 0 {
		return nil
	}
	out := make([]Range, 0, (size+int64(blockSize)-1)/int64(blockSize))
	for off := int64(0); off < size; off += int64(blockSize) {
		n := int64(blockSize)
		if off+n > size {
			n = size - off
		}
		out = append(out, Range{Off: off, Len: n})
	}
	return out
}

// NumBlocks reports how many fixed-size blocks a file of the given size
// splits into.
func NumBlocks(size int64, blockSize int) int64 {
	checkBlockSize(blockSize)
	if size <= 0 {
		return 0
	}
	return (size + int64(blockSize) - 1) / int64(blockSize)
}

// Range is a half-open dirty byte range [Off, Off+Len).
type Range struct {
	Off, Len int64
}

// Normalize sorts ranges, drops empty ones, and merges overlapping or
// adjacent ranges. When the input is already normalized — the common
// case for append-style edit logs — it is returned as-is without
// copying, so callers must treat both the argument and the result as
// read-only afterwards.
func Normalize(ranges []Range) []Range {
	normalized := true
	for i, r := range ranges {
		if r.Len <= 0 || (i > 0 && r.Off <= ranges[i-1].Off+ranges[i-1].Len) {
			normalized = false
			break
		}
	}
	if normalized {
		return ranges
	}
	rs := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		if r.Len > 0 {
			rs = append(rs, r)
		}
	}
	slices.SortStableFunc(rs, func(a, b Range) int {
		switch {
		case a.Off < b.Off:
			return -1
		case a.Off > b.Off:
			return 1
		default:
			return 0
		}
	})
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && r.Off <= out[n-1].Off+out[n-1].Len {
			end := r.Off + r.Len
			if last := out[n-1].Off + out[n-1].Len; end < last {
				end = last
			}
			out[n-1].Len = end - out[n-1].Off
			continue
		}
		out = append(out, r)
	}
	return out
}

// DirtyBlocks reports how many fixed-size blocks of a file of the given
// size overlap at least one of the dirty ranges — the number of blocks
// an incremental sync must transfer. Ranges are clamped to the file.
// This is the analytic core of the simulator's chunk-level sync: it
// computes, without materializing content, exactly what the rsync
// implementation in internal/delta would resend.
func DirtyBlocks(size int64, blockSize int, ranges []Range) int64 {
	return dirtyBlocksNorm(size, blockSize, Normalize(ranges))
}

// dirtyBlocksNorm is DirtyBlocks on pre-normalized ranges, so callers
// that need several passes (DirtyBytes) normalize exactly once.
func dirtyBlocksNorm(size int64, blockSize int, norm []Range) int64 {
	checkBlockSize(blockSize)
	if size <= 0 {
		return 0
	}
	bs := int64(blockSize)
	var total int64
	prevLast := int64(-1) // highest block index already counted
	for _, r := range norm {
		if r.Off >= size {
			break // normalized ranges are sorted
		}
		end := r.Off + r.Len
		if end > size {
			end = size
		}
		first := r.Off / bs
		last := (end - 1) / bs
		if first <= prevLast {
			first = prevLast + 1
		}
		if last >= first {
			total += last - first + 1
			prevLast = last
		}
	}
	return total
}

// DirtyBytes reports the byte volume of the dirty blocks: blocks × block
// size, clamped to the file size for the trailing block.
func DirtyBytes(size int64, blockSize int, ranges []Range) int64 {
	norm := Normalize(ranges)
	n := dirtyBlocksNorm(size, blockSize, norm)
	if n == 0 {
		return 0
	}
	bs := int64(blockSize)
	full := n * bs
	// If the final block of the file is dirty and short, do not charge a
	// full block for it.
	lastBlockStart := ((size - 1) / bs) * bs
	lastShort := size - lastBlockStart
	if lastShort < bs && blockDirty(size, blockSize, norm, lastBlockStart/bs) {
		full = full - bs + lastShort
	}
	return full
}

// blockDirty reports whether block idx intersects any of the ranges,
// which must already be normalized (sorted, merged) — re-normalizing
// here made DirtyBytes quadratic-ish on many-range files.
func blockDirty(size int64, blockSize int, norm []Range, idx int64) bool {
	bs := int64(blockSize)
	start, end := idx*bs, (idx+1)*bs
	if end > size {
		end = size
	}
	for _, r := range norm {
		if r.Off >= end {
			return false // sorted: nothing later can intersect
		}
		if r.Off+r.Len > start {
			return true
		}
	}
	return false
}

func checkBlockSize(blockSize int) {
	if blockSize <= 0 {
		panic(fmt.Sprintf("chunker: invalid block size %d", blockSize))
	}
}

// gearTable drives the content-defined chunker's rolling hash. Values
// are generated once from a fixed seed so chunk boundaries are stable
// across runs and Go versions.
var gearTable = buildGearTable()

func buildGearTable() [256]uint64 {
	var t [256]uint64
	state := uint64(0x1234_5678_9ABC_DEF0)
	for i := range t {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}

// gearWindow is the gear hash's effective window: h = (h<<1) + g[b]
// shifts each byte's contribution left once per subsequent byte, so
// after 64 shifts it has left the 64-bit register entirely. The hash at
// position i therefore depends only on data[i-63 … i], which is what
// lets the scan skip the un-judged prefix of each chunk (see CutPoints).
const gearWindow = 64

func checkCDCParams(min, avg, max int) {
	if min <= 0 || avg < min || max < avg {
		panic(fmt.Sprintf("chunker: invalid CDC parameters min=%d avg=%d max=%d", min, avg, max))
	}
	if avg&(avg-1) != 0 {
		panic(fmt.Sprintf("chunker: average chunk size %d must be a power of two", avg))
	}
}

// ContentDefined splits data at content-defined boundaries using a gear
// rolling hash, with minimum, average (power of two), and maximum chunk
// sizes. Identical content regions produce identical chunks regardless
// of their offsets, which is what makes this discipline robust to
// insertions — the property fixed-size blocking lacks.
//
// Boundary discovery and strong hashing are separate passes: CutPoints
// finds the geometry with the skip-optimized scan, then every chunk is
// fingerprinted in one batched MD5 sweep. Cut points are identical to
// the straightforward reference loop (contentDefinedRef) — asserted by
// the differential harness — so committed tables never move.
func ContentDefined(data []byte, min, avg, max int) []Block {
	cuts := CutPoints(data, min, avg, max)
	return sumBlocks(data, cuts)
}

// sumBlocks is the batched strong-hash pass: one MD5 per cut range.
func sumBlocks(data []byte, cuts []Range) []Block {
	if len(cuts) == 0 {
		return nil
	}
	blocks := make([]Block, len(cuts))
	for i, r := range cuts {
		blocks[i] = Block{
			Off:  r.Off,
			Size: int(r.Len),
			Sum:  md5.Sum(data[r.Off : r.Off+r.Len]),
		}
	}
	return blocks
}

// CutPoints returns the content-defined chunk layout of data without
// fingerprinting anything — the CDC counterpart of Boundaries. Callers
// that only need geometry (insert-shift accounting, cached fingerprint
// lookups) skip the MD5 work entirely.
//
// The scan is FastCDC-style: no byte below the minimum chunk length can
// be a cut, and the gear hash only remembers the last gearWindow bytes,
// so each chunk's scan starts at start+min-gearWindow — a 64-byte
// warm-up, then a judged segment whose inner loop tests nothing but the
// hash mask (the min bound is already proven and the max bound is the
// segment end). For min < gearWindow the warm-up would underrun the
// chunk start, so the reference loop runs instead; both paths produce
// identical cut points.
func CutPoints(data []byte, min, avg, max int) []Range {
	checkCDCParams(min, avg, max)
	if len(data) == 0 {
		return nil
	}
	if min < gearWindow {
		return cutPointsRef(data, min, avg, max)
	}
	mask := uint64(avg - 1)
	cuts := make([]Range, 0, len(data)/avg+1)
	start := 0
	for len(data)-start >= min {
		// First judged position: the byte completing a min-length chunk.
		i := start + min - 1
		// Last position a mask cut may land on is start+max-1 (a chunk of
		// exactly max bytes); cap the judged segment there and at EOF.
		end := start + max
		if end > len(data) {
			end = len(data)
		}
		// Warm-up: absorb the gearWindow-1 bytes before the first judged
		// position. h then matches the reference loop's value at every
		// judged position (older bytes have shifted out of the register).
		var h uint64
		for j := i - (gearWindow - 1); j < i; j++ {
			h = (h << 1) + gearTable[data[j]]
		}
		// Judged segment: branch-minimized — one table add, one mask test.
		cut := -1
		for ; i < end; i++ {
			h = (h << 1) + gearTable[data[i]]
			if h&mask == mask {
				cut = i
				break
			}
		}
		if cut < 0 {
			if end == start+max {
				// Mask never fired within max bytes: forced cut at max.
				cut = end - 1
			} else {
				// Ran off the end of data: the remainder is the final chunk.
				break
			}
		}
		cuts = append(cuts, Range{Off: int64(start), Len: int64(cut - start + 1)})
		start = cut + 1
	}
	if start < len(data) {
		cuts = append(cuts, Range{Off: int64(start), Len: int64(len(data) - start)})
	}
	return cuts
}
