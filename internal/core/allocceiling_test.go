package core

import (
	"testing"

	"cloudsync/internal/kerneltest"
	"cloudsync/internal/parallel"
)

// TestScaleReplayAllocCeiling pins what a scale replay allocates per
// replayed file and service — the witness behind trace-replay's
// files_per_s. A simulated sync round reuses its client's scratch and
// disabled tracing costs nothing, so what is left is state the replay
// keeps (blobs, edits, cloud entries, dedup index) plus the replay's
// own scheduling. Ceilings are the measured 18.5 allocations and
// 1 900 B plus 10 %; the sync round that allocated its scratch afresh
// read 125.6 and 7 106 B.
func TestScaleReplayAllocCeiling(t *testing.T) {
	if kerneltest.Race {
		t.Skip("the race detector allocates on its own")
	}
	const maxObjects, maxBytes = 20.4, 2090
	parallel.SetWorkers(2)
	defer parallel.SetWorkers(0)
	recs := scaleTrace()
	ScaleReplay(recs, 1) // first use pays one-time initialisation
	res := ScaleReplay(recs, 2)
	per := float64(res.Files * len(res.Services))
	objects, bytes := float64(res.AllocObjects)/per, float64(res.AllocBytes)/per
	t.Logf("%d files x %d services: %.2f allocations, %.0f B per file", res.Files, len(res.Services), objects, bytes)
	if objects > maxObjects {
		t.Errorf("%.2f allocations per file and service, ceiling %.1f", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f B allocated per file and service, ceiling %d", bytes, maxBytes)
	}
}
