package watchsync

import (
	"testing"
	"time"

	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/invariant"
)

// freqModConfig and asdPolicy are the run `syncwatch -replay freqmod
// -defer asd` makes with its default flags, which EXPERIMENTS.md
// reports: 16 KiB files (the replay's default, past the 8 KiB a file
// may ride inline in) growing by 256 B per edit.
func freqModConfig(mode deferpolicy.Policy) ReplayConfig {
	return ReplayConfig{
		Files:    2,
		Edits:    8,
		Interval: 500 * time.Millisecond,
		Step:     100 * time.Millisecond,
		Seed:     42,
		Defer:    mode,
	}
}

var asdPolicy = deferpolicy.Policy{
	Kind:    deferpolicy.ASD,
	Epsilon: 100 * time.Millisecond,
	TMax:    10 * time.Second,
}

// TestReplayFreqModASDReducesTraffic is the paper's headline live
// result replayed end to end: on a frequent-modification workload
// (edits every 500ms), adaptive sync defer batches the burst — the
// inter-update estimate converges to Δt+2ε = 700ms, beyond the 500ms
// gap — while the no-defer baseline pays a delta round trip per edit.
// Same trace, same server, strictly less wire traffic, and the
// attribution ledgers stay exact on both ends in both runs.
func TestReplayFreqModASDReducesTraffic(t *testing.T) {
	leakCheck(t)
	none, err := ReplayFreqMod(freqModConfig(deferpolicy.Policy{}))
	if err != nil {
		t.Fatal(err)
	}
	asd, err := ReplayFreqMod(freqModConfig(asdPolicy))
	if err != nil {
		t.Fatal(err)
	}

	if none.Deferred != 0 {
		t.Fatalf("no-defer run deferred %d times", none.Deferred)
	}
	if asd.Deferred == 0 {
		t.Fatal("ASD run never deferred — the policy is not engaging")
	}
	if asd.SyncPoints >= none.SyncPoints {
		t.Fatalf("ASD sync points = %d, no-defer = %d; batching should reduce them",
			asd.SyncPoints, none.SyncPoints)
	}
	if asd.ClientWire >= none.ClientWire {
		t.Fatalf("ASD wire = %d B, no-defer = %d B; deferment should cost less",
			asd.ClientWire, none.ClientWire)
	}
	if asd.TUE() >= none.TUE() {
		t.Fatalf("ASD TUE = %.2f, no-defer TUE = %.2f", asd.TUE(), none.TUE())
	}
	// Each full upload leaves its signature on the client, so ASD's few
	// delta syncs fetch none: 1.033 here, where fetching one per file
	// cost 1.072 (and fixed 8 KiB blocks 1.039).
	if asd.TUE() >= 1.039 {
		t.Fatalf("ASD TUE = %.3f, want below 1.039", asd.TUE())
	}

	for name, r := range map[string]*ReplayResult{"none": none, "asd": asd} {
		if vs := invariant.CheckLedger(r.ClientWire, r.ClientLedger); len(vs) != 0 {
			t.Fatalf("%s client ledger: %v", name, vs)
		}
		if vs := invariant.CheckLedger(r.ServerWire, r.ServerLedger); len(vs) != 0 {
			t.Fatalf("%s server ledger: %v", name, vs)
		}
	}
}

// TestReplayFreqModDeterministic: the replay is a virtual-clock
// simulation — two runs of one config must agree byte for byte, or
// the EXPERIMENTS.md numbers would not be reproducible.
func TestReplayFreqModDeterministic(t *testing.T) {
	leakCheck(t)
	a, err := ReplayFreqMod(freqModConfig(asdPolicy))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayFreqMod(freqModConfig(asdPolicy))
	if err != nil {
		t.Fatal(err)
	}
	if a.ClientWire != b.ClientWire || a.ServerWire != b.ServerWire ||
		a.Uploads != b.Uploads || a.Deltas != b.Deltas ||
		a.Deferred != b.Deferred || a.SyncPoints != b.SyncPoints {
		t.Fatalf("replay not deterministic:\nrun1: %+v\nrun2: %+v", a, b)
	}
	if a.ClientLedger != b.ClientLedger {
		t.Fatalf("ledger attribution not deterministic:\nrun1: %v\nrun2: %v",
			a.ClientLedger, b.ClientLedger)
	}
}
