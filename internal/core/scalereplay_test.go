package core

import (
	"testing"

	"cloudsync/internal/client"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
	"cloudsync/internal/trace"
)

func scaleTrace() []trace.Record {
	return trace.Generate(trace.GenConfig{Seed: 1, Scale: 0.002})
}

// stripTimings zeroes the fields that legitimately vary run to run,
// leaving everything the determinism contract covers.
func stripTimings(r ScaleResult) ScaleResult {
	r.Wall = 0
	r.AllocBytes = 0
	r.AllocObjects = 0
	r.PeakRSSBytes = 0
	return r
}

// TestScaleReplayParallelMatchesSequential: the per-account scale
// replay must produce identical traffic, update sizes, and TUE no
// matter how many workers replay the accounts.
func TestScaleReplayParallelMatchesSequential(t *testing.T) {
	recs := scaleTrace()

	parallel.SetWorkers(1)
	seq := stripTimings(ScaleReplay(recs, 2))
	parallel.SetWorkers(8)
	defer parallel.SetWorkers(0)
	par := stripTimings(ScaleReplay(recs, 2))

	if len(seq.Services) != len(par.Services) {
		t.Fatalf("service count differs: %d vs %d", len(seq.Services), len(par.Services))
	}
	for i := range seq.Services {
		if seq.Services[i] != par.Services[i] {
			t.Errorf("service %s differs between workers=1 and workers=8:\nsequential %+v\nparallel   %+v",
				seq.Services[i].Service, seq.Services[i], par.Services[i])
		}
	}
}

// TestScaleReplayTUEStable: cloned populations replay byte-equivalent
// workloads, so per-service TUE must be EXACTLY equal at every
// multiplier — the scale mode's headline invariant.
func TestScaleReplayTUEStable(t *testing.T) {
	recs := scaleTrace()
	base := ScaleReplay(recs, 1)
	for _, n := range []int{2, 4} {
		scaled := ScaleReplay(recs, n)
		for i, sr := range scaled.Services {
			b := base.Services[i]
			if sr.TUE != b.TUE {
				t.Errorf("n=%d: %s TUE %v != baseline %v", n, sr.Service, sr.TUE, b.TUE)
			}
			if sr.Traffic != int64(n)*b.Traffic {
				t.Errorf("n=%d: %s traffic %d != %d × baseline %d",
					n, sr.Service, sr.Traffic, n, b.Traffic)
			}
			if sr.UpdateBytes != int64(n)*b.UpdateBytes {
				t.Errorf("n=%d: %s update bytes %d != %d × baseline %d",
					n, sr.Service, sr.UpdateBytes, n, b.UpdateBytes)
			}
		}
	}
}

// TestScaleReplayLedgerBalance is the ledger property for the trace
// replay: with one attribution ledger shared by every account of every
// service, replayed concurrently, each wire byte is charged to a cause
// — the invariant.CheckLedger balance holds exactly even though dozens
// of accounts charge the (atomic) ledger at once.
func TestScaleReplayLedgerBalance(t *testing.T) {
	recs := scaleTrace()
	parts := partitionByUser(recs)
	type unit struct {
		n    service.Name
		part userPartition
	}
	var units []unit
	for _, n := range scaleServices() {
		for _, p := range parts {
			units = append(units, unit{n, p})
		}
	}

	parallel.SetWorkers(8)
	defer parallel.SetWorkers(0)

	led := ledger.New()
	traffic := parallel.Map(units, func(_ int, u unit) int64 {
		s := service.NewSetup(u.n, client.PC, service.Options{User: u.part.user})
		s.Capture.SetLedger(led)
		bytes, _ := replayAccount(s, recs, u.part, 0)
		return bytes
	})

	var total int64
	for _, b := range traffic {
		total += b
	}
	if total == 0 {
		t.Fatal("trace replay produced no traffic")
	}
	for _, v := range invariant.CheckLedger(total, led.Snapshot()) {
		t.Errorf("%v", v)
	}
}
