package trace

import (
	"testing"
	"time"
)

// testTrace caches a mid-scale trace for the calibration tests.
var testTrace = Generate(GenConfig{Seed: 1, Scale: 0.15})

func TestGenerateScaleValidation(t *testing.T) {
	for _, scale := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scale %v did not panic", scale)
				}
			}()
			Generate(GenConfig{Scale: scale})
		}()
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Seed: 7, Scale: 0.01})
	b := Generate(GenConfig{Seed: 7, Scale: 0.01})
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := Generate(GenConfig{Seed: 8, Scale: 0.01})
	same := len(c) == len(a)
	if same {
		same = false
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestScaleApproximatesTable2(t *testing.T) {
	counts := PerServiceCounts(testTrace)
	if len(counts) != 6 {
		t.Fatalf("services = %d, want 6", len(counts))
	}
	// Dropbox should dominate files, as in Table 2.
	if counts["Dropbox"][1] < counts["OneDrive"][1]*3 {
		t.Fatalf("Dropbox files (%d) should dwarf OneDrive (%d)",
			counts["Dropbox"][1], counts["OneDrive"][1])
	}
	total := 0
	for _, c := range counts {
		total += c[1]
	}
	want := TotalFiles * 15 / 100
	if total < want*9/10 || total > want*11/10 {
		t.Fatalf("total files = %d, want ≈ %d", total, want)
	}
}

func TestCalibrationMatchesPaperStatistics(t *testing.T) {
	s := Analyze(testTrace)

	check := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.4g, want in [%.4g, %.4g]", name, got, lo, hi)
		}
	}
	// Fig. 2: median 7.5 KB, mean 962 KB, max ≤ 2 GB; 77 % small.
	check("median size", s.MedianSize, 4<<10, 14<<10)
	check("mean size", s.MeanSize, 500<<10, 1600<<10)
	if s.MaxSize > MaxFileSize {
		t.Errorf("max size %v exceeds 2 GB", s.MaxSize)
	}
	check("small fraction", s.SmallFraction, 0.72, 0.84)
	// § 5.1: 52 % compressible, overall ratio 1.31.
	check("compressible fraction", s.CompressibleFraction, 0.46, 0.58)
	check("compression ratio", s.CompressionRatio, 1.18, 1.45)
	// § 4.3: 84 % modified.
	check("modified fraction", s.ModifiedFraction, 0.80, 0.88)
	// § 5.2: 18.8 % duplicate volume.
	check("duplicate volume fraction", s.DuplicateVolumeFraction, 0.13, 0.25)
	// § 4.1: 66 % of small files batch-creatable.
	check("batchable small fraction", s.BatchableSmallFraction, 0.55, 0.78)
	// Compressed median should sit below the original median (Fig. 2's
	// 3.2 KB vs 7.5 KB).
	if s.MedianCompressed >= s.MedianSize {
		t.Errorf("median compressed %v not below median original %v",
			s.MedianCompressed, s.MedianSize)
	}
}

func TestDedupRatioBlockVsFullFile(t *testing.T) {
	full := DedupRatio(testTrace, 0)
	block128K := DedupRatio(testTrace, 128<<10)
	block16M := DedupRatio(testTrace, 16<<20)

	if full < 1.1 || full > 1.4 {
		t.Fatalf("full-file dedup ratio = %.3f, want ≈ 1.23", full)
	}
	// Fig. 5: block-level is better, but only trivially.
	if block128K < full {
		t.Fatalf("128KB block ratio %.3f below full-file %.3f", block128K, full)
	}
	if block128K > full*1.15 {
		t.Fatalf("128KB block ratio %.3f should exceed full-file %.3f only trivially",
			block128K, full)
	}
	// Finer blocks dedup at least as well as coarser ones.
	if block128K < block16M {
		t.Fatalf("ratio should not increase with block size: 128K=%.3f 16M=%.3f",
			block128K, block16M)
	}
}

func TestSizeCDF(t *testing.T) {
	orig, comp := SizeCDF(testTrace, []float64{1 << 10, 100 << 10, 1 << 30})
	if !(orig[0] < orig[1] && orig[1] < orig[2]) {
		t.Fatalf("CDF not increasing: %v", orig)
	}
	// Compressed sizes stochastically dominate below: CDF at least as
	// high everywhere.
	for i := range orig {
		if comp[i] < orig[i]-1e-9 {
			t.Fatalf("compressed CDF below original at point %d: %v < %v", i, comp[i], orig[i])
		}
	}
}

func TestFullHashSharedByDuplicates(t *testing.T) {
	// Find a duplicate pair (same ContentID) and confirm identical
	// hashes; distinct contents must differ.
	byContent := map[int64][]Record{}
	for _, r := range testTrace {
		byContent[r.ContentID] = append(byContent[r.ContentID], r)
	}
	foundDup := false
	for _, group := range byContent {
		if len(group) > 1 {
			foundDup = true
			if group[0].FullHash() != group[1].FullHash() {
				t.Fatal("duplicate contents hash differently")
			}
			break
		}
	}
	if !foundDup {
		t.Fatal("trace contains no duplicates")
	}
	if testTrace[0].ContentID != testTrace[1].ContentID &&
		testTrace[0].FullHash() == testTrace[1].FullHash() {
		t.Fatal("distinct contents share a hash")
	}
}

func TestBlockHashSharedPrefix(t *testing.T) {
	// Hand-built parent/child pair: blocks inside the shared prefix
	// match, later blocks differ.
	parent := Record{ContentID: 1, ParentID: -1, OriginalSize: 1 << 20}
	child := Record{ContentID: 2, ParentID: 1, SharedPrefix: 512 << 10, OriginalSize: 1 << 20}
	const bs = 128 << 10
	for idx := int64(0); idx < 4; idx++ { // first 512 KB
		if child.BlockHash(bs, idx) != parent.BlockHash(bs, idx) {
			t.Fatalf("shared-prefix block %d differs", idx)
		}
	}
	if child.BlockHash(bs, 4) == parent.BlockHash(bs, 4) {
		t.Fatal("post-prefix block should differ")
	}
}

func TestBlockHashTailLengthMatters(t *testing.T) {
	// A short tail block must not collide with a full block of the same
	// index.
	a := Record{ContentID: 5, ParentID: -1, OriginalSize: 100}
	b := Record{ContentID: 5, ParentID: -1, OriginalSize: 200}
	if a.BlockHash(128, 0) == b.BlockHash(128, 0) {
		t.Fatal("tail blocks of different lengths collide")
	}
}

func TestBlockHashBounds(t *testing.T) {
	r := Record{ContentID: 1, ParentID: -1, OriginalSize: 100}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range block did not panic")
		}
	}()
	r.BlockHash(128, 1)
}

func TestNumBlocks(t *testing.T) {
	r := Record{OriginalSize: 1000}
	if r.NumBlocks(128) != 8 {
		t.Fatalf("NumBlocks = %d", r.NumBlocks(128))
	}
	if (Record{}).NumBlocks(128) != 0 {
		t.Fatal("empty file should have 0 blocks")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze(nil)
	if s.Files != 0 || s.Users != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestBatchWindowDetection(t *testing.T) {
	base := Epoch
	recs := []Record{
		{User: "u", OriginalSize: 10, Created: base, ContentID: 1, ParentID: -1},
		{User: "u", OriginalSize: 10, Created: base.Add(time.Second), ContentID: 2, ParentID: -1},
		{User: "u", OriginalSize: 10, Created: base.Add(time.Hour), ContentID: 3, ParentID: -1},
	}
	s := Analyze(recs)
	want := 2.0 / 3.0
	if diff := s.BatchableSmallFraction - want; diff < -0.01 || diff > 0.01 {
		t.Fatalf("BatchableSmallFraction = %v, want %v", s.BatchableSmallFraction, want)
	}
}

func BenchmarkGenerateFullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(GenConfig{Seed: int64(i), Scale: 1.0})
	}
}

func BenchmarkDedupRatio128K(b *testing.B) {
	recs := Generate(GenConfig{Seed: 1, Scale: 0.05})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DedupRatio(recs, 128<<10)
	}
}
