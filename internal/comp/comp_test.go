package comp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cloudsync/internal/content"
)

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{None: "none", Low: "low", Moderate: "moderate", High: "high"} {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", l, got, want)
		}
	}
	if Level(9).String() == "" {
		t.Error("unknown level should render")
	}
}

func TestNoneIsIdentity(t *testing.T) {
	b := content.Text(100_000, 1)
	if got := Size(b, None); got != b.Size() {
		t.Fatalf("Size(None) = %d, want %d", got, b.Size())
	}
	data := []byte("hello")
	if !bytes.Equal(Compress(data, None), data) {
		t.Fatal("Compress(None) changed data")
	}
	out, err := Decompress(data, None)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatal("Decompress(None) changed data")
	}
}

func TestLevelsMonotone(t *testing.T) {
	b := content.Text(1<<20, 2)
	sNone, sLow, sMod, sHigh := Size(b, None), Size(b, Low), Size(b, Moderate), Size(b, High)
	if !(sHigh < sMod && sMod < sLow && sLow < sNone) {
		t.Fatalf("sizes not monotone: none=%d low=%d mod=%d high=%d", sNone, sLow, sMod, sHigh)
	}
	if sHigh != IdealSize(b) {
		t.Fatalf("High should reach ideal: %d vs %d", sHigh, IdealSize(b))
	}
}

func TestRandomDoesNotExpand(t *testing.T) {
	b := content.Random(1<<20, 3)
	if got := IdealSize(b); got > b.Size() {
		t.Fatalf("IdealSize(random) = %d > size %d", got, b.Size())
	}
	if got := Size(b, High); got > b.Size() {
		t.Fatalf("Size(random, High) = %d > size %d", got, b.Size())
	}
}

func TestZerosCollapse(t *testing.T) {
	b := content.Zeros(1 << 20)
	if got := IdealSize(b); got > b.Size()/100 {
		t.Fatalf("IdealSize(zeros 1MB) = %d, want tiny", got)
	}
}

func TestEmptyBlob(t *testing.T) {
	b := content.FromBytes(nil)
	if IdealSize(b) != 0 {
		t.Fatal("ideal of empty should be 0")
	}
	if EffectivelyCompressible(b) {
		t.Fatal("empty blob should not be effectively compressible")
	}
}

func TestEffectivelyCompressible(t *testing.T) {
	if !EffectivelyCompressible(content.Text(100_000, 4)) {
		t.Fatal("text should be effectively compressible")
	}
	if EffectivelyCompressible(content.Random(100_000, 4)) {
		t.Fatal("random should not be effectively compressible")
	}
}

func TestSamplingMatchesExactForText(t *testing.T) {
	// Bucketed text ratios: a small and a large text blob should report
	// nearly the same ratio.
	exact := content.Text(256<<10, 5)
	sampled := content.Text(16<<20, 5)
	rExact := float64(IdealSize(exact)) / float64(exact.Size())
	rSampled := float64(IdealSize(sampled)) / float64(sampled.Size())
	if diff := rExact - rSampled; diff < -0.05 || diff > 0.05 {
		t.Fatalf("exact ratio %.3f vs sampled ratio %.3f", rExact, rSampled)
	}
}

func TestLiteralSamplingMatchesExact(t *testing.T) {
	// A literal blob above the exact limit is estimated from a prefix;
	// its ratio should track the exact ratio of a same-corpus smaller
	// literal.
	small := content.FromBytes(content.Text(1<<20, 9).Bytes())
	big := content.FromBytes(content.Text(8<<20, 9).Bytes())
	rSmall := float64(IdealSize(small)) / float64(small.Size())
	rBig := float64(IdealSize(big)) / float64(big.Size())
	if diff := rSmall - rBig; diff < -0.05 || diff > 0.05 {
		t.Fatalf("literal exact ratio %.3f vs sampled ratio %.3f", rSmall, rBig)
	}
	if rBig > 0.7 {
		t.Fatalf("sampled literal text ratio = %.3f, want compressible", rBig)
	}
}

func TestDescriptorKindsNeverExpand(t *testing.T) {
	blobs := []*content.Blob{
		content.Random(100, 1), content.Text(100, 1), content.Zeros(100),
		content.Text(3, 1), // tiny text: bucket ratio could exceed 1; must clamp
	}
	for n := int64(1); n <= 64; n++ { // below the zero-run token floor
		blobs = append(blobs, content.Zeros(n))
	}
	for _, b := range blobs {
		if got := IdealSize(b); got > b.Size() {
			t.Errorf("%v: IdealSize %d > size %d", b, got, b.Size())
		}
	}
}

func TestIdealCacheStable(t *testing.T) {
	b := content.Text(1<<20, 6)
	first := IdealSize(b)
	second := IdealSize(content.Text(1<<20, 6))
	if first != second {
		t.Fatalf("cache returned different values: %d vs %d", first, second)
	}
}

func TestTable8Calibration(t *testing.T) {
	// Table 8: a 10 MB text file uploads as ~8.1 MB with mobile (Low),
	// ~5.9 MB with PC (Moderate); downloads at ~5.3 MB (High). Allow a
	// generous band: the shape (Low ≫ Moderate > High) is the finding.
	b := content.Text(10<<20, 7)
	mb := func(n int64) float64 { return float64(n) / (1 << 20) }
	low, mod, high := mb(Size(b, Low)), mb(Size(b, Moderate)), mb(Size(b, High))
	if low < 7.0 || low > 9.0 {
		t.Errorf("Low = %.2f MB, want ≈ 8.1", low)
	}
	if mod < 5.0 || mod > 6.8 {
		t.Errorf("Moderate = %.2f MB, want ≈ 5.9", mod)
	}
	if high < 4.3 || high > 6.0 {
		t.Errorf("High = %.2f MB, want ≈ 5.3", high)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(131, 100); got < 1.30 || got > 1.32 {
		t.Fatalf("Ratio = %v", got)
	}
	if got := Ratio(100, 0); got != 1 {
		t.Fatalf("Ratio with zero compressed = %v", got)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	for _, l := range []Level{Low, Moderate, High} {
		data := content.Text(100_000, 8).Bytes()
		c := Compress(data, l)
		if len(c) >= len(data) {
			t.Fatalf("level %v did not compress text (%d → %d)", l, len(data), len(c))
		}
		out, err := Decompress(c, l)
		if err != nil {
			t.Fatalf("level %v: %v", l, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("level %v: roundtrip mismatch", l)
		}
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress([]byte("not flate data"), High); err == nil {
		t.Fatal("Decompress of garbage should error")
	}
}

// Property: for any blob, ideal ≤ level sizes ≤ original, and sizes are
// ordered by level.
func TestPropertySizeBounds(t *testing.T) {
	f := func(sz uint16, seed int64, kindSel uint8) bool {
		size := int64(sz) + 1
		var b *content.Blob
		switch kindSel % 3 {
		case 0:
			b = content.Random(size, seed)
		case 1:
			b = content.Text(size, seed)
		default:
			b = content.Zeros(size)
		}
		ideal := IdealSize(b)
		if ideal > b.Size() {
			return false
		}
		prev := int64(-1)
		for _, l := range []Level{High, Moderate, Low, None} {
			s := Size(b, l)
			if s < ideal || s > b.Size() || s < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIdealSizeSampled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		blob := content.Text(16<<20, int64(i))
		IdealSize(blob)
	}
}
