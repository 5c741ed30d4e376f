package core

import (
	"testing"

	"cloudsync/internal/parallel"
	"cloudsync/internal/trace"
)

// renderAll runs a grid experiment and the full trace replay and
// returns their rendered tables — the exact byte streams tuebench
// prints. The creation-seed counter is reset first so both invocations
// see identical seed reservations.
func renderAll(t *testing.T) (table6, replay string) {
	t.Helper()
	creationSeed.Store(10_000)
	table6 = RenderTable6(Experiment1(QuickSizes), QuickSizes)
	recs := trace.Generate(trace.GenConfig{Seed: 1, Scale: 0.01})
	replay = RenderReplay(TraceReplayAll(recs, 100))
	return table6, replay
}

// TestParallelMatchesSequential is the determinism contract end to end:
// the worker pool must return byte-identical tables no matter how many
// workers execute the experiment cells.
func TestParallelMatchesSequential(t *testing.T) {
	parallel.SetWorkers(1)
	seqTable, seqReplay := renderAll(t)

	parallel.SetWorkers(8)
	defer parallel.SetWorkers(0)
	parTable, parReplay := renderAll(t)

	if parTable != seqTable {
		t.Errorf("Experiment1 table differs between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqTable, parTable)
	}
	if parReplay != seqReplay {
		t.Errorf("TraceReplayAll table differs between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqReplay, parReplay)
	}
}

// TestParallelMatchesSequentialBatch covers an experiment whose cells
// draw many seeds from pre-reserved sequences (100 files per cell).
func TestParallelMatchesSequentialBatch(t *testing.T) {
	run := func(workers int) []Cell {
		parallel.SetWorkers(workers)
		creationSeed.Store(10_000)
		return Experiment1Batch()
	}
	seq := run(1)
	par := run(8)
	parallel.SetWorkers(0)
	if len(seq) != len(par) {
		t.Fatalf("result count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("row %d differs: sequential %+v, parallel %+v", i, seq[i], par[i])
		}
	}
}
