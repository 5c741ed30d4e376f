package client

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cloudsync/internal/cloud"
	"cloudsync/internal/content"
	"cloudsync/internal/netem"
	"cloudsync/internal/vfs"
)

// TestRoundScratchCommitsItsOwnSnapshot: a client keeps one round's
// scratch (names, batch, units, exchange arena) and refills it every
// round, which is safe only because the next round starts after the
// last session of this one has committed. Writes land throughout on a
// slow link, many while a round is in flight (the wantSync path). Every
// commit must carry the blob the folder held when its own round
// snapshotted it — at that round's dispatch — and the cloud must equal
// the folder at quiescence, per file, per BDS bundle and shared
// session alike.
func TestRoundScratchCommitsItsOwnSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"per-file", func(*Config) {}},
		{"bds", func(c *Config) { c.BDS, c.BundleSize = true, 3 }},
		{"shared-session", func(c *Config) { c.SharedSession = true }},
		{"bds-shared-session", func(c *Config) { c.BDS, c.SharedSession = true, true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			tc.set(&cfg)
			r := newRig(t, cfg, cloud.Config{ProcessingTime: 300 * time.Millisecond}, netem.Beijing(), true)
			c := r.client

			// The folder as the current round's snapshot saw it.
			snap := make(map[string]*content.Blob)
			rounds, commits, inFlightWrites := 0, 0, 0
			dispatch := c.dispatchFn
			c.dispatchFn = func() {
				clear(snap)
				for _, name := range r.fs.Names() {
					f, _ := r.fs.File(name)
					snap[name] = f.Blob()
				}
				rounds++
				dispatch()
			}
			r.fs.Watch(func(vfs.Event) {
				if c.InFlight() {
					inFlightWrites++
				}
			})
			r.cloud.Subscribe("alice", "observer", func(e *cloud.Entry, deleted bool) {
				commits++
				want, ok := snap[e.Name]
				switch {
				case deleted && ok:
					t.Errorf("round %d deleted %q, which its snapshot held", rounds, e.Name)
				case !deleted && e.Blob != want:
					t.Errorf("round %d committed %q as %v, its snapshot held %v", rounds, e.Name, e.Blob, want)
				}
			})

			rng := rand.New(rand.NewSource(7))
			names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
			at := time.Duration(0)
			for op := 0; op < 200; op++ {
				at += time.Duration(rng.Intn(3000)) * time.Millisecond
				name := names[rng.Intn(len(names))]
				blob := content.Random(int64(1+rng.Intn(64<<10)), int64(op+1))
				del := rng.Intn(5) == 0
				r.clock.Post(at, func() {
					_, exists := r.fs.File(name)
					var err error
					switch {
					case del && exists:
						err = r.fs.Delete(name)
					case del:
					case exists:
						err = r.fs.Write(name, blob, nil)
					default:
						err = r.fs.Create(name, blob)
					}
					if err != nil {
						panic(fmt.Sprintf("%s %q: %v", tc.name, name, err))
					}
				})
			}
			r.clock.Run()

			if c.PendingCount() != 0 || c.InFlight() {
				t.Fatalf("client did not quiesce (pending=%d inflight=%v)", c.PendingCount(), c.InFlight())
			}
			if rounds < 20 || inFlightWrites < 20 {
				t.Fatalf("%d rounds and %d writes during a round: the script did not exercise reuse", rounds, inFlightWrites)
			}
			for _, name := range names {
				f, inFolder := r.fs.File(name)
				e, inCloud := r.cloud.File("alice", name)
				switch {
				case inFolder != inCloud:
					t.Errorf("%q: in folder %v, in cloud %v", name, inFolder, inCloud)
				case inFolder && e.Blob != f.Blob():
					t.Errorf("%q: cloud holds %v, folder %v", name, e.Blob, f.Blob())
				}
			}
			t.Logf("%d rounds, %d commits, %d writes during a round", rounds, commits, inFlightWrites)
		})
	}
}
