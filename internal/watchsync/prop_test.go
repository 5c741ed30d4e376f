package watchsync

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/invariant"
)

// TestWatchPipelineProperty replays seeded interleavings of writes and
// removes through a whole pipeline — MemSource, debounced buffer,
// planner, a pool of one or two workers over net.Pipe, real server —
// under each deferment policy. At quiescence the server holds the local
// tree, deletions included, and the ledgers on both ends balance their
// wire totals. The seeded worlds of internal/invariant compose this with
// other devices, link cuts and server crashes.
func TestWatchPipelineProperty(t *testing.T) {
	policies := []deferpolicy.Policy{
		{},
		{Kind: deferpolicy.Fixed, T: 600 * time.Millisecond},
		{Kind: deferpolicy.ASD, Epsilon: 50 * time.Millisecond, TMax: 3 * time.Second},
		{Kind: deferpolicy.UDS, Threshold: 8 << 10, MaxDelay: time.Second},
	}
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x3a7c))
		cfg := Config{Debounce: time.Duration(seed%3) * 150 * time.Millisecond, Defer: policies[seed%4]}
		r, err := buildRig(1+int(seed%2), cfg, "prop")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.pipe.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		step := func() {
			now += 400 * time.Millisecond
			if err := r.pipe.Poll(now); err != nil {
				t.Fatalf("seed %d: poll at %v: %v", seed, now, err)
			}
			if st, _, _, err := r.pipe.Tick(now); err != nil || st.Errors > 0 {
				t.Fatalf("seed %d: tick at %v: %v, %d transfer errors", seed, now, err, st.Errors)
			}
		}
		for i := 0; i < 24; i++ {
			name := fmt.Sprintf("f%d.bin", rng.IntN(6))
			if _, live := r.src.Files()[name]; live && rng.IntN(4) == 0 {
				r.src.RemoveFile(name)
			} else {
				r.src.WriteFile(name, content.Random(1+rng.Int64N(24<<10), rng.Int64()).Bytes(), now)
			}
			step()
		}
		for i := 0; r.pipe.PendingPaths() > 0; i++ {
			if i == 1000 {
				t.Fatalf("seed %d: %d paths still pending", seed, r.pipe.PendingPaths())
			}
			step()
		}

		local, snap := r.src.Files(), r.srv.Snapshot("prop")
		for name, f := range snap {
			if _, ok := local[name]; !ok && !f.Deleted {
				t.Errorf("seed %d: %s live remotely but removed locally", seed, name)
			}
		}
		for name, want := range local {
			if f := snap[name]; f.Deleted || !bytes.Equal(f.Data, want) {
				t.Errorf("seed %d: %s: %d B local, %d B remote (deleted %v)", seed, name, len(want), len(f.Data), f.Deleted)
			}
		}
		wire := r.wire()
		r.close()
		st := r.srv.Stats()
		for _, v := range append(invariant.CheckLedger(wire, r.cliLed.Snapshot()),
			invariant.CheckLedger(st.BytesReceived+st.BytesSent, r.srvLed.Snapshot())...) {
			t.Errorf("seed %d: %v", seed, v)
		}
		if t.Failed() {
			return
		}
	}
}
