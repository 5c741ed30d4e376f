package core

import (
	"strings"
	"testing"

	"cloudsync/internal/parallel"
)

func TestFaultSweepLossRaisesTUE(t *testing.T) {
	cells := FaultSweep(QuickFaultLossProbs)
	byLoc := map[string][]FaultCell{}
	for _, c := range cells {
		byLoc[c.Location] = append(byLoc[c.Location], c)
	}
	for _, loc := range []string{"MN", "BJ"} {
		rows := byLoc[loc]
		if len(rows) != len(QuickFaultLossProbs) {
			t.Fatalf("%s has %d rows, want %d", loc, len(rows), len(QuickFaultLossProbs))
		}
		clean := rows[0]
		if clean.Param != 0 || clean.Faults.Retransmits != 0 {
			t.Fatalf("%s baseline row not clean: %+v", loc, clean)
		}
		worst := rows[len(rows)-1]
		if worst.Faults.Retransmits == 0 {
			t.Fatalf("%s at %v%% loss injected no retransmissions", loc, worst.Param*100)
		}
		if worst.TUE <= clean.TUE {
			t.Fatalf("%s TUE did not grow under loss: clean %.3f, lossy %.3f",
				loc, clean.TUE, worst.TUE)
		}
	}
	showcase := byLoc["BJ+faults"]
	if len(showcase) != 1 || showcase[0].Faults.Retransmits == 0 {
		t.Fatalf("FaultyBeijing showcase row missing or clean: %+v", showcase)
	}
	// Every TUE in the sweep respects the floor: faults only add bytes.
	for _, c := range cells {
		if c.TUE < 1 {
			t.Fatalf("cell %+v has TUE below 1", c)
		}
	}
}

func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []FaultCell {
		parallel.SetWorkers(workers)
		creationSeed.Store(10_000)
		return FaultSweep(QuickFaultLossProbs)
	}
	seq := run(1)
	par := run(8)
	parallel.SetWorkers(0)
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d differs: workers=1 %+v, workers=8 %+v", i, seq[i], par[i])
		}
	}
}

// TestFaultSweepCellDependsOnItsRateOnly: a loss rate's cell — its
// traffic, causes and injected faults — is the same in the quick sweep
// and in the full one, which lists the rate at another index. The
// schedule is seeded by the rate, and the payloads are random, so
// their content seeds move no byte.
func TestFaultSweepCellDependsOnItsRateOnly(t *testing.T) {
	type key struct {
		loc  string
		prob float64
	}
	full := map[key]FaultCell{}
	for _, c := range FaultSweep(FaultLossProbs) {
		full[key{c.Location, c.Param}] = c
	}
	for _, c := range FaultSweep(QuickFaultLossProbs) {
		f, ok := full[key{c.Location, c.Param}]
		if !ok {
			t.Fatalf("%s at %v loss: not in the full sweep", c.Location, c.Param)
		}
		if c.Traffic != f.Traffic || c.Causes != f.Causes || c.Faults != f.Faults {
			t.Errorf("%s at %v loss: quick sweep %d B, %+v; full sweep %d B, %+v",
				c.Location, c.Param, c.Traffic, c.Faults, f.Traffic, f.Faults)
		}
	}
}

func TestRenderFaultSweep(t *testing.T) {
	out := RenderFaultSweep([]FaultCell{{Cell: Cell{Param: 0.05, TUE: 12.5}, Location: "MN"}})
	for _, want := range []string{"MN", "5%", "Retransmits"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
