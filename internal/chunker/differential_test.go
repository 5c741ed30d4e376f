package chunker

// Differential harness: the optimized cut scans (warm-up-window skip,
// segmented judged loop) against the retained byte-at-a-time reference
// loops, across random parameter draws — including min < gearWindow
// (the fallback path), adversarial all-equal-byte inputs, and masks
// that never fire — so cut-point exactness is enforced forever, not
// just on today's golden tables.

import (
	"fmt"
	"testing"
)

// diffRand is a small deterministic xorshift so the harness does not
// depend on content (which imports this package).
type diffRand uint64

func (r *diffRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = diffRand(x)
	return x
}

func (r *diffRand) intn(n int) int { return int(r.next() % uint64(n)) }

// randCDCParams draws a valid (min, avg, max) triple: avg a power of
// two in [32, 16384], min anywhere in [1, avg] (both the fallback and
// skip paths), max in [avg, 6·avg].
func randCDCParams(r *diffRand) (min, avg, max int) {
	avg = 32 << r.intn(10)
	min = 1 + r.intn(avg)
	max = avg + r.intn(5*avg+1)
	return min, avg, max
}

// randData draws adversarially shaped inputs: uniform random bytes,
// all-equal bytes (the mask may never fire, forcing max-capped cuts
// everywhere), tiny alphabets, and empty/short inputs.
func randData(r *diffRand, maxLen int) []byte {
	n := r.intn(maxLen + 1)
	data := make([]byte, n)
	switch r.intn(4) {
	case 0: // uniform random
		for i := range data {
			data[i] = byte(r.next())
		}
	case 1: // all-identical bytes
		b := byte(r.next())
		for i := range data {
			data[i] = b
		}
	case 2: // two-symbol alphabet with long runs
		b := byte(r.next())
		for i := range data {
			if r.intn(50) == 0 {
				b ^= 0xFF
			}
			data[i] = b
		}
	default: // short ascending ramp, repeated
		for i := range data {
			data[i] = byte(i)
		}
	}
	return data
}

func rangesEqual(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialCutPoints holds CutPoints to the reference loop over
// 1000 random (min, avg, max, data) draws.
func TestDifferentialCutPoints(t *testing.T) {
	r := diffRand(0x9E3779B97F4A7C15)
	fallback, skip := 0, 0
	for iter := 0; iter < 1000; iter++ {
		min, avg, max := randCDCParams(&r)
		data := randData(&r, 64<<10)
		if min < gearWindow {
			fallback++
		} else {
			skip++
		}
		got := CutPoints(data, min, avg, max)
		want := cutPointsRef(data, min, avg, max)
		if !rangesEqual(got, want) {
			t.Fatalf("iter %d: CutPoints(len=%d, %d/%d/%d) diverged from reference:\ngot  %v\nwant %v",
				iter, len(data), min, avg, max, clip(got), clip(want))
		}
	}
	// Both the fallback (min < gearWindow) and the skip path must have
	// been exercised, or the draw distribution has rotted.
	if fallback == 0 || skip == 0 {
		t.Fatalf("draws covered fallback=%d skip=%d; both paths must be hit", fallback, skip)
	}
}

// TestDifferentialContentDefined holds the full optimized pipeline —
// geometry pass plus batched MD5 — to the reference scan's blocks.
func TestDifferentialContentDefined(t *testing.T) {
	r := diffRand(0xDEADBEEFCAFEF00D)
	for iter := 0; iter < 200; iter++ {
		min, avg, max := randCDCParams(&r)
		data := randData(&r, 32<<10)
		got := ContentDefined(data, min, avg, max)
		want := contentDefinedRef(data, min, avg, max)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d blocks vs reference %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: block %d = %+v, reference %+v", iter, i, got[i], want[i])
			}
		}
	}
}

// clip keeps failure messages readable on thousand-chunk inputs.
func clip(rs []Range) string {
	if len(rs) <= 12 {
		return fmt.Sprint(rs)
	}
	return fmt.Sprintf("%v … (%d ranges)", rs[:12], len(rs))
}

// --- Directed edge cases -------------------------------------------------

func TestCutPointsEmpty(t *testing.T) {
	if got := CutPoints(nil, 64, 128, 256); got != nil {
		t.Fatalf("CutPoints(nil) = %v", got)
	}
	if got := ContentDefined(nil, 64, 128, 256); got != nil {
		t.Fatalf("ContentDefined(nil) = %v", got)
	}
}

// TestCutPointsMinBelowWindow pins the fallback path: min below the
// 64-byte gear warm-up window must still match the reference exactly
// (the skip trick would judge positions whose hash had not absorbed
// the full prefix).
func TestCutPointsMinBelowWindow(t *testing.T) {
	r := diffRand(7)
	data := randData(&r, 0)
	data = make([]byte, 20000)
	for i := range data {
		data[i] = byte(r.next())
	}
	for _, min := range []int{1, 2, 16, 63} {
		got := CutPoints(data, min, 256, 1024)
		want := cutPointsRef(data, min, 256, 1024)
		if !rangesEqual(got, want) {
			t.Fatalf("min=%d: fallback diverged from reference", min)
		}
	}
}

// TestCutPointsAllEqualBytes: on a constant input the gear hash is the
// same at every same-length position, so either every chunk cuts at
// the identical mask-fire length or the mask never fires and every
// chunk is exactly max (the never-matching-mask shape). Both must
// agree with the reference and tile the input.
func TestCutPointsAllEqualBytes(t *testing.T) {
	for b := 0; b < 256; b += 17 {
		data := make([]byte, 50000)
		for i := range data {
			data[i] = byte(b)
		}
		got := CutPoints(data, 64, 512, 2048)
		if !rangesEqual(got, cutPointsRef(data, 64, 512, 2048)) {
			t.Fatalf("byte %#x: diverged from reference", b)
		}
		var covered int64
		for i, r := range got {
			if r.Off != covered {
				t.Fatalf("byte %#x: gap at %d", b, covered)
			}
			covered += r.Len
			// All non-final chunks of a constant input are the same length.
			if i > 0 && i < len(got)-1 && r.Len != got[0].Len {
				t.Fatalf("byte %#x: constant input produced unequal chunks %d and %d", b, got[0].Len, r.Len)
			}
		}
		if covered != int64(len(data)) {
			t.Fatalf("byte %#x: covered %d of %d", b, covered, len(data))
		}
	}
}

// TestCutPointsMaxCapExact pins the forced-cut boundary: data that is
// an exact multiple of max with a mask that never fires must split
// into precisely len/max full chunks, with no empty trailing range.
func TestCutPointsMaxCapExact(t *testing.T) {
	// Zero bytes: gearTable[0] is a fixed odd-looking constant, and the
	// mask below is chosen so it never fires (verified by the reference
	// loop inside the assertion).
	const max = 1024
	data := make([]byte, 4*max)
	cuts := CutPoints(data, 64, 512, max)
	if !rangesEqual(cuts, cutPointsRef(data, 64, 512, max)) {
		t.Fatal("diverged from reference")
	}
	if len(cuts) != 4 {
		t.Fatalf("got %d chunks, want 4 max-capped: %v", len(cuts), cuts)
	}
	for i, r := range cuts {
		if r.Len != max {
			t.Fatalf("chunk %d length %d, want exactly max=%d", i, r.Len, max)
		}
	}
	// One byte over the multiple: a single trailing 1-byte chunk.
	cuts = CutPoints(data[:3*max+1], 64, 512, max)
	if len(cuts) != 4 || cuts[3].Len != 1 {
		t.Fatalf("max+1 split = %v", cuts)
	}
}

// TestCutPointsGeometryMatchesContentDefined: the geometry pass and the
// fingerprinting wrapper must describe the same chunks.
func TestCutPointsGeometryMatchesContentDefined(t *testing.T) {
	r := diffRand(99)
	data := make([]byte, 100000)
	for i := range data {
		data[i] = byte(r.next())
	}
	cuts := CutPoints(data, 2048, 8192, 32768)
	blocks := ContentDefined(data, 2048, 8192, 32768)
	if len(cuts) != len(blocks) {
		t.Fatalf("%d ranges vs %d blocks", len(cuts), len(blocks))
	}
	for i := range cuts {
		if cuts[i].Off != blocks[i].Off || int(cuts[i].Len) != blocks[i].Size {
			t.Fatalf("range %d = %+v, block %+v", i, cuts[i], blocks[i])
		}
	}
}
