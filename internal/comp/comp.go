// Package comp is the data-compression subsystem. It plays two roles:
//
//   - A real codec (flate) used by the storage substrate and examples to
//     actually compress and decompress bytes.
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
	"fmt"
	"io"
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
	w, err := flate.NewWriter(&counter, flate.BestCompression)
	if err != nil {
		panic(fmt.Sprintf("comp: flate.NewWriter: %v", err))
	}
	if _, err := w.Write(data); err != nil {
		panic(fmt.Sprintf("comp: compress: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("comp: close: %v", err))
	}
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

// Compress really compresses data with the codec corresponding to the
// level. Level None returns the input unchanged.
func Compress(data []byte, l Level) []byte {
	if l == None {
		return data
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flateLevel(l))
	if err != nil {
		panic(fmt.Sprintf("comp: flate.NewWriter: %v", err))
	}
	if _, err := w.Write(data); err != nil {
		panic(fmt.Sprintf("comp: compress: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("comp: close: %v", err))
	}
	return buf.Bytes()
}

// Decompress reverses Compress. Level None returns the input unchanged.
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
