package core

import (
	"slices"
	"strings"
	"testing"

	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
)

func TestReferenceBeatsEveryService(t *testing.T) {
	cells := ReferenceComparison()
	if len(cells) != 7 {
		t.Fatalf("workloads = %d", len(cells))
	}
	for _, c := range cells {
		// The reference design should never be worse than the best
		// commercial service by more than a small margin, and should
		// beat the worst by a wide one.
		if c.Reference > c.Best*1.25 {
			t.Errorf("%s: reference TUE %.2f worse than best service %.2f (%s)",
				c.Workload, c.Reference, c.Best, c.BestName)
		}
		if c.Worst < c.Reference {
			t.Errorf("%s: worst service (%s, %.2f) beat the reference (%.2f)?",
				c.Workload, c.WorstName, c.Worst, c.Reference)
		}
	}
	// Specific headline numbers.
	byName := map[string]ReferenceCell{}
	for _, c := range cells {
		byName[c.Workload] = c
	}
	if c := byName["append 8 KB/8 s → 1 MB"]; c.Reference > 2 {
		t.Errorf("reference appending TUE = %.2f, want ≈ 1 (ASD)", c.Reference)
	}
	if c := byName["100 × 1 KB batch"]; c.Reference > 2 {
		t.Errorf("reference batch TUE = %.2f, want ≈ 1 (BDS)", c.Reference)
	}
	if c := byName["re-upload duplicate 1 MB"]; c.Reference > 0.05 {
		t.Errorf("reference duplicate TUE = %.3f, want ≈ 0 (dedup)", c.Reference)
	}
	if c := byName["create 1 MB text file"]; c.Reference > 0.75 {
		t.Errorf("reference text TUE = %.2f, want < 0.75 (compression)", c.Reference)
	}
}

// TestReferenceASDBound verifies the ASD claim end to end on the
// reference design: the worst-case appending TUE across a cadence sweep.
func TestReferenceASDBound(t *testing.T) {
	xs := []float64{1, 4, 9, 16}
	seeds := make([]int64, len(xs))
	for i := range seeds {
		seeds[i] = nextSeed()
	}
	tues := parallel.Map(xs, func(i int, x float64) float64 {
		return appendCell(service.NewReferenceSetup(service.Options{}), x, seeds[i]).TUE
	})
	if worst := slices.Max(tues); worst > 2.5 {
		t.Fatalf("reference worst-case appending TUE = %.2f, want ≈ 1 at every cadence", worst)
	}
}

func TestRenderReference(t *testing.T) {
	s := RenderReference(ReferenceComparison())
	if !strings.Contains(s, "Reference") || !strings.Contains(s, "Workload") {
		t.Fatalf("render incomplete:\n%s", s)
	}
}
