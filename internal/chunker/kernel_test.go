package chunker

import (
	"testing"

	"cloudsync/internal/kerneltest"
)

// TestAllocCeilings pins each kernel's allocations per call. A count
// does not depend on the machine, so each ceiling is the exact count:
// one exactly-sized result slice for the scans, plus the fingerprint
// slice for ContentDefined. One more means a kernel lost its presizing.
func TestAllocCeilings(t *testing.T) {
	data, data1MB := benchData(4<<20), benchData(1<<20)
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func() int
	}{
		{"Fixed", 1, func() int { return len(Fixed(data, 128<<10)) }},
		{"ContentDefined", 2, func() int { return len(ContentDefined(data, 2<<10, 8<<10, 32<<10)) }},
		{"ContentDefined1MB", 2, func() int { return len(ContentDefined(data1MB, 2048, 8192, 65536)) }},
		{"ContentDefinedCuts", 1, func() int { return len(CutPoints(data, 2<<10, 8<<10, 32<<10)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(5, func() {
				if tc.run() == 0 {
					t.Fatal("no chunks")
				}
			})
			if allocs > tc.ceiling {
				t.Errorf("%.0f allocations per call, ceiling %.0f", allocs, tc.ceiling)
			}
		})
	}
}

// TestCutPointsOutrunsReference guards the skip scan: CutPoints must
// stay well ahead of cutPointsRef, the byte-at-a-time loop it replaced,
// on the same 4 MiB. The ratio is 1.7–2.9× on a 2-vCPU Xeon, with or
// without a `tuebench -quick` load beside it; without the warm-up skip
// and the mask-only inner loop it falls to about 1.
func TestCutPointsOutrunsReference(t *testing.T) {
	if kerneltest.Race {
		t.Skip("the race detector's per-access cost flattens the ratio")
	}
	data := benchData(4 << 20)
	fast := func() { CutPoints(data, 2<<10, 8<<10, 32<<10) }
	ref := func() { cutPointsRef(data, 2<<10, 8<<10, 32<<10) }
	r := kerneltest.SpeedRatio(fast, ref, 15)
	t.Logf("CutPoints is %.2f× cutPointsRef", r)
	if r < 1.4 {
		t.Fatalf("CutPoints is %.2f× cutPointsRef, want ≥ 1.4×", r)
	}
}
