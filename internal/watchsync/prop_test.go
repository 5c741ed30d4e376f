package watchsync

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/invariant"
)

// propSeeds is how many independent scenarios the property test
// replays; propOps is the length of each event script.
const (
	propSeeds = 100
	propOps   = 24
)

// propDefer derives the scenario's deferment policy from its seed, so
// every policy — including no deferment — faces every interleaving
// shape over the run.
func propDefer(seed uint64) deferpolicy.Policy {
	switch seed % 4 {
	case 1:
		return deferpolicy.Policy{Kind: deferpolicy.Fixed, T: 600 * time.Millisecond}
	case 2:
		return deferpolicy.Policy{Kind: deferpolicy.ASD, Epsilon: 50 * time.Millisecond, TMax: 3 * time.Second}
	case 3:
		return deferpolicy.Policy{Kind: deferpolicy.UDS, Threshold: 8 << 10, MaxDelay: time.Second}
	default:
		return deferpolicy.Policy{}
	}
}

// runWatchScenario replays ops[:n] of the seed's event script through
// a full pipeline — MemSource, debounced buffer, pure planner,
// parallel executor over net.Pipe, real server — and checks the two
// end-to-end invariants: the server converges to the local tree, and
// the traffic-attribution ledgers on BOTH ends balance their wire
// totals exactly. Deterministic for a given (seed, n), which is what
// makes prefix shrinking sound.
func runWatchScenario(seed uint64, n int) []invariant.Violation {
	fail := func(format string, args ...any) []invariant.Violation {
		return []invariant.Violation{{Invariant: "watch-pipeline", Detail: fmt.Sprintf(format, args...)}}
	}
	ops := invariant.GenOps(seed, n)
	cfg := Config{
		Debounce: time.Duration(seed%3) * 150 * time.Millisecond,
		Defer:    propDefer(seed),
	}
	workers := 1 + int(seed%2)
	r, err := buildRig(workers, cfg, "prop")
	if err != nil {
		return fail("rig: %v", err)
	}
	defer r.close()
	if err := r.pipe.Bootstrap(); err != nil {
		return fail("bootstrap: %v", err)
	}

	step := func(now time.Duration) []invariant.Violation {
		if err := r.pipe.Poll(now); err != nil {
			return fail("poll at %v: %v", now, err)
		}
		st, _, _, err := r.pipe.Tick(now)
		if err != nil {
			return fail("tick at %v: %v", now, err)
		}
		if st.Errors > 0 {
			return fail("%d transfer errors at %v", st.Errors, now)
		}
		return nil
	}

	// One op lands every 400ms of virtual time; get ops advance the
	// clock without an event, so quiet gaps occur too.
	now := time.Duration(0)
	for _, op := range ops {
		now += 400 * time.Millisecond
		switch op.Kind {
		case invariant.OpPut:
			r.src.WriteFile(op.Name, content.Random(op.Size, op.ContentSeed).Bytes(), now)
		case invariant.OpDelete:
			r.src.RemoveFile(op.Name)
		}
		if vs := step(now); vs != nil {
			return vs
		}
	}
	// Quiesce: tick until every deferred and buffered change drained.
	for i := 0; r.pipe.PendingPaths() > 0; i++ {
		if i > 1000 {
			return fail("did not quiesce: %d paths pending", r.pipe.PendingPaths())
		}
		now += 400 * time.Millisecond
		if vs := step(now); vs != nil {
			return vs
		}
	}

	// Convergence: server state == local tree, deletions included.
	var out []invariant.Violation
	local := r.src.Files()
	snap := r.srv.Snapshot("prop")
	for name, want := range local {
		got, ok := snap[name]
		switch {
		case !ok || got.Deleted:
			out = append(out, invariant.Violation{Invariant: "watch-convergence",
				Detail: fmt.Sprintf("%s live locally but absent remotely", name)})
		case !bytes.Equal(got.Data, want):
			out = append(out, invariant.Violation{Invariant: "watch-convergence",
				Detail: fmt.Sprintf("%s differs: %d B local vs %d B remote", name, len(want), len(got.Data))})
		}
	}
	for name, f := range snap {
		if _, ok := local[name]; !ok && !f.Deleted {
			out = append(out, invariant.Violation{Invariant: "watch-convergence",
				Detail: fmt.Sprintf("%s live remotely but deleted locally", name)})
		}
	}

	// Exact ledger balance on both ends: close the clients first so
	// residual partial-frame bytes are swept into framing.
	clientWire := r.wire()
	r.close()
	out = append(out, invariant.CheckLedger(clientWire, r.cliLed.Snapshot())...)
	stats := r.srv.Stats()
	out = append(out, invariant.CheckLedger(stats.BytesReceived+stats.BytesSent, r.srvLed.Snapshot())...)
	return out
}

// TestWatchPipelineProperty replays propSeeds random event
// interleavings end to end. On failure it shrinks to the shortest
// failing prefix of the seed's script before reporting, so the log
// shows a minimal reproducer.
func TestWatchPipelineProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property replay is not short")
	}
	for seed := uint64(0); seed < propSeeds; seed++ {
		vs := runWatchScenario(seed, propOps)
		if len(vs) == 0 {
			continue
		}
		shrunk := invariant.ShrinkPrefix(propOps, func(k int) bool {
			return len(runWatchScenario(seed, k)) > 0
		})
		ops := invariant.GenOps(seed, shrunk)
		var script []string
		for i, op := range ops {
			script = append(script, fmt.Sprintf("  %2d. %v", i+1, op))
		}
		t.Fatalf("seed %d fails (shrunk %d → %d ops):\n%s\nviolations: %v\nreplay: runWatchScenario(%d, %d)",
			seed, propOps, shrunk, joinLines(script), runWatchScenario(seed, shrunk), seed, shrunk)
	}
}

func joinLines(lines []string) string {
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
