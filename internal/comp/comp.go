// Package comp is the data-compression subsystem. It plays two roles:
//
//   - A real codec (flate) the live sync stack (syncnet) uses to
//     actually compress and decompress payloads. Compress draws its
//     writer from a per-level pool, so a payload costs its output
//     buffer, not a fresh ≈ 1 MB compressor. What a peer sends is
//     inflated by DecompressSize, into exactly the size the content
//     was announced at, after refusing a size no payload of that
//     length can reach; CompressBound is the matching cap on the
//     payload a size can announce.
//   - An analytic size model used by the simulation: services compress
//     uploads at a *compression level* that is a design choice (§ 5.1 of
//     the paper distinguishes "no", "low" — mobile apps saving battery —
//     "moderate" — PC clients — and "high" — cloud-side recompression),
//     and the simulator needs the resulting sizes without paying for
//     gigabytes of flate work on synthetic content.
//
// The model anchors every level to the blob's *ideal* compressed size
// (best-effort flate, computed exactly for small blobs and by
// deterministic sampling for large descriptor blobs): a level achieves a
// fixed fraction of the ideal size reduction. The fractions are
// calibrated so a 10 MB text file reproduces Table 8's upload sizes.
package comp

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"cloudsync/internal/content"
)

// Level is a data-compression design choice.
type Level uint8

const (
	// None performs no compression (Google Drive, OneDrive, Box,
	// SugarSync on every access method).
	None Level = iota
	// Low is lightweight compression, as mobile clients use to save
	// battery.
	Low
	// Moderate is the default PC-client level.
	Moderate
	// High is best-effort compression, as used on cloud→client downloads.
	High
)

// String names the level.
func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case Low:
		return "low"
	case Moderate:
		return "moderate"
	case High:
		return "high"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// reductionFraction is the share of the ideal size reduction each level
// achieves. Calibrated against Table 8: a 10 MB text file (ideal ≈
// 5.2 MB) uploads as ≈ 8.1 MB on mobile (Low), ≈ 5.9 MB on PC
// (Moderate), and downloads as ≈ 5.3 MB (High).
func (l Level) reductionFraction() float64 {
	switch l {
	case None:
		return 0
	case Low:
		return 0.55
	case Moderate:
		return 0.92
	case High:
		return 1.0
	default:
		panic(fmt.Sprintf("comp: unknown level %d", l))
	}
}

// literalExactLimit is the largest literal (caller-supplied) blob
// whose ideal size is computed by full flate; larger ones are
// estimated from a literalSampleSize prefix. Descriptor blobs never
// reach flate per-blob: random and zero content have closed forms, and
// synthetic text has a uniform ratio measured once per size bucket
// (see textIdeal) — which keeps workloads that churn many text files
// (trace replay) out of the compressor entirely.
const literalExactLimit = 4 << 20

// literalSampleSize is the prefix length compressed to estimate the
// ratio of literal blobs above literalExactLimit.
const literalSampleSize = 1 << 20

var idealCache = struct {
	sync.Mutex
	m map[string]int64
}{m: make(map[string]int64)}

// IdealSize reports the best-effort compressed size of a blob. It never
// exceeds the blob's size: a service that would expand a file stores it
// uncompressed instead. Results are cached by content identity.
func IdealSize(b *content.Blob) int64 {
	if b.Size() == 0 {
		return 0
	}
	// Analytic fast paths for descriptor kinds whose compressibility is
	// known by construction: random data is incompressible (flate would
	// only confirm ≈ 1.0003× and get clamped), and zero runs collapse to
	// roughly a per-kilobyte token. These paths keep append-workload
	// experiments from paying for thousands of flate runs.
	switch b.Kind() {
	case content.KindRandom:
		return b.Size()
	case content.KindZeros:
		// The 64-byte token floor exceeds a blob shorter than that.
		return min(b.Size()/1024+64, b.Size())
	case content.KindText:
		// Synthetic text compresses at a ratio that depends only on
		// length (vocabulary and token mix are fixed), so the ratio is
		// measured once per size bucket on a representative blob and
		// reused — workloads that churn many text files never repeat
		// the flate work.
		return textIdeal(b.Size())
	}
	key := b.Identity()
	idealCache.Lock()
	if v, ok := idealCache.m[key]; ok {
		idealCache.Unlock()
		return v
	}
	idealCache.Unlock()

	var ideal int64
	if b.Size() <= literalExactLimit {
		ideal = flateSize(b.Bytes())
	} else {
		// Large literal content: estimate from a prefix sample rather
		// than paying full flate.
		sample := make([]byte, literalSampleSize)
		if _, err := io.ReadFull(b.Reader(), sample); err != nil {
			panic(fmt.Sprintf("comp: sampling %v: %v", b, err))
		}
		ratio := float64(flateSize(sample)) / float64(len(sample))
		ideal = int64(ratio * float64(b.Size()))
	}
	if ideal > b.Size() {
		ideal = b.Size()
	}
	idealCache.Lock()
	idealCache.m[key] = ideal
	idealCache.Unlock()
	return ideal
}

var textRatioCache = struct {
	sync.Mutex
	m map[int]float64
}{m: make(map[int]float64)}

// textIdeal estimates best-effort compressed size for synthetic text
// from a per-size-bucket ratio (buckets are powers of two, capped at
// the sampling size).
func textIdeal(size int64) int64 {
	bucket := 4
	for int64(1)<<bucket < size && bucket < 18 { // cap rep at 256 KiB
		bucket++
	}
	textRatioCache.Lock()
	ratio, ok := textRatioCache.m[bucket]
	textRatioCache.Unlock()
	if !ok {
		rep := content.Text(1<<bucket, 0x7357)
		ratio = float64(flateSize(rep.Bytes())) / float64(rep.Size())
		textRatioCache.Lock()
		textRatioCache.m[bucket] = ratio
		textRatioCache.Unlock()
	}
	ideal := int64(ratio * float64(size))
	if ideal > size {
		ideal = size
	}
	return ideal
}

func flateSize(data []byte) int64 {
	var counter countWriter
	deflate(&counter, data, High)
	return counter.n
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// Size reports the size of a blob after compression at the given level:
// the blob size minus the level's fraction of the ideal reduction.
func Size(b *content.Blob, l Level) int64 {
	if l == None {
		return b.Size()
	}
	ideal := IdealSize(b)
	reduction := float64(b.Size()-ideal) * l.reductionFraction()
	return b.Size() - int64(reduction)
}

// Ratio reports original/compressed — the paper's "compression ratio"
// (≥ 1 when compression helps). Returns 1 for empty input.
func Ratio(original, compressed int64) float64 {
	if compressed <= 0 {
		return 1
	}
	return float64(original) / float64(compressed)
}

// EffectivelyCompressible applies the paper's § 5.1 criterion: a file is
// effectively compressible when best-effort compression shrinks it below
// 90 % of its original size.
func EffectivelyCompressible(b *content.Blob) bool {
	if b.Size() == 0 {
		return false
	}
	return float64(IdealSize(b))/float64(b.Size()) < 0.90
}

// flateLevel maps a Level to a flate compression level for the real
// codec paths.
func flateLevel(l Level) int {
	switch l {
	case Low:
		return flate.BestSpeed
	case Moderate:
		return 6
	case High:
		return flate.BestCompression
	default:
		panic(fmt.Sprintf("comp: no codec for level %v", l))
	}
}

// writers pools one flate.Writer per level: a writer is ≈ 1 MB of
// hash chains and window, and Reset makes a pooled one produce exactly
// the bytes a fresh one would.
var writers [High + 1]sync.Pool

// deflate writes data to dst compressed at level l, through a pooled
// writer.
func deflate(dst io.Writer, data []byte, l Level) {
	w, _ := writers[l].Get().(*flate.Writer)
	if w == nil {
		var err error
		if w, err = flate.NewWriter(dst, flateLevel(l)); err != nil {
			panic(fmt.Sprintf("comp: flate.NewWriter: %v", err))
		}
	} else {
		w.Reset(dst)
	}
	if _, err := w.Write(data); err != nil {
		panic(fmt.Sprintf("comp: compress: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("comp: close: %v", err))
	}
	w.Reset(io.Discard) // a pooled writer must not pin dst
	writers[l].Put(w)
}

// Compress really compresses data with the codec corresponding to the
// level. Level None returns the input unchanged. The result is never
// longer than CompressBound(len(data), l).
func Compress(data []byte, l Level) []byte {
	if l == None {
		return data
	}
	var buf bytes.Buffer
	deflate(&buf, data, l)
	return buf.Bytes()
}

// flateBlock is the least input a non-final block of this package's
// codec covers: compress/flate ends a block every 16 Ki tokens at
// Moderate and High (every 65 535 bytes at Low), and a token is at
// least one byte.
const flateBlock = 16 << 10

// CompressBound is the longest payload Compress can produce from size
// bytes at level l: exactly size under None, else the input stored
// verbatim, at worst a 5-byte stored-block header per block, plus the
// final block. A receiver that knows the size a payload announces can
// refuse any longer one before buffering it.
func CompressBound(size int64, l Level) int64 {
	if l == None || size < 0 {
		return size
	}
	b := size + 5*(size/flateBlock+1) + 10
	if b < size {
		return math.MaxInt64 // overflowed: no real payload is that long
	}
	return b
}

// maxInflation is DEFLATE's largest expansion: at best a 258-byte match
// is coded in two bits (a one-bit length code, a one-bit distance
// code), 1032 output bytes per input byte, and nothing codes denser.
const maxInflation = 1032

// ErrSizeMismatch reports a payload that does not inflate to exactly
// the size it was announced at.
var ErrSizeMismatch = errors.New("comp: content size mismatch")

// DecompressSize reverses Compress into exactly size bytes, the size
// the content was announced at. It fails with ErrSizeMismatch when the
// payload inflates to more or fewer bytes, or when no DEFLATE stream of
// len(data) bytes reaches size — checked before anything is allocated,
// so a lying size costs nothing — and with another error when the
// stream is corrupt or followed by trailing bytes. Level None checks
// len(data) == size and returns data itself.
func DecompressSize(data []byte, l Level, size int64) ([]byte, error) {
	if l == None {
		if int64(len(data)) != size {
			return nil, ErrSizeMismatch
		}
		return data, nil
	}
	if size < 0 || size > maxInflation*int64(len(data)) || int64(int(size)) != size {
		return nil, ErrSizeMismatch
	}
	src := bytes.NewReader(data)
	r := flate.NewReader(src)
	defer r.Close()
	out := make([]byte, size)
	for n := 0; n < len(out); {
		m, err := r.Read(out[n:])
		n += m
		if err == io.EOF && n < len(out) {
			return nil, ErrSizeMismatch
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("comp: decompress: %w", err)
		}
	}
	// The stream must end exactly here: no byte more, none after it.
	var more [1]byte
	if m, err := r.Read(more[:]); m > 0 {
		return nil, ErrSizeMismatch
	} else if err != io.EOF {
		return nil, fmt.Errorf("comp: decompress: %w", err)
	}
	if src.Len() > 0 {
		return nil, fmt.Errorf("comp: decompress: %d bytes after the stream", src.Len())
	}
	return out, nil
}

// Decompress reverses Compress, however large the result: it takes no
// size to bound the output, so nothing that reads a peer's bytes calls
// it (they call DecompressSize). Level None returns the input
// unchanged. Its last caller is the benchmark's per-layer replay, which
// ROADMAP item 2(a) deletes.
func Decompress(data []byte, l Level) ([]byte, error) {
	if l == None {
		return data, nil
	}
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("comp: decompress: %w", err)
	}
	return out, nil
}
