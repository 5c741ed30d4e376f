package invariant_test

import (
	"fmt"
	"testing"
	"time"

	"cloudsync/internal/capture"
	"cloudsync/internal/chunker"
	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/invariant"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/service"
)

// faultyLinkForSeed degrades the Beijing vantage point with a seeded
// mix of exchange loss, connection drops, and stalls. Every fourth
// seed keeps the link clean, so the property also covers the fault-free
// baseline.
func faultyLinkForSeed(seed uint64) netem.Link {
	l := netem.Beijing()
	if seed%4 == 3 {
		return l
	}
	p := &netem.FaultProfile{
		Seed:     seed + 0xFA00,
		LossProb: float64(seed%30) / 100,
	}
	if seed%3 == 1 {
		p.MeanDropInterval = 20 * time.Second
	}
	if seed%2 == 0 {
		p.MeanStallInterval = 30 * time.Second
		p.StallDuration = 2 * time.Second
	}
	l.Faults = p
	return l
}

// runSim replays a world's script on the simulated sync path — Google
// Drive's PC client, which syncs full files with no compression and no
// dedup, so the TUE floor applies — and checks the invariants against
// the cloud's file table. It returns the violations plus the up-traffic
// total (for the determinism check). The simulator has one device and
// no live server: puts (bundled ones included) and deletes replay, the
// other kinds have no counterpart and are skipped. Edits and shrinks
// only name live files, so skipping them keeps every delete valid.
func runSim(seed uint64, ops []op) ([]invariant.Violation, int64) {
	s := service.NewSetup(service.GoogleDrive, client.PC, service.Options{
		Link:  faultyLinkForSeed(seed),
		Defer: &deferpolicy.Policy{Kind: deferpolicy.None},
	})
	led := &ledger.Ledger{}
	s.Capture.SetLedger(led)
	tr := invariant.NewTracker()
	server := make(map[string]invariant.ServerFile)

	fail := func(err error) ([]invariant.Violation, int64) {
		up, _ := s.Capture.Since(capture.Mark{})
		return []invariant.Violation{{Invariant: "failed-op", Detail: err.Error()}}, up
	}
	for _, o := range ops {
		for _, p := range append([]op{o}, o.batch...) {
			switch p.kind {
			case opPut:
				blob := content.Random(p.size, p.seed)
				var err error
				if _, ok := s.FS.File(p.name); ok {
					err = s.FS.Write(p.name, blob, []chunker.Range{{Off: 0, Len: p.size}})
				} else {
					err = s.FS.Create(p.name, blob)
				}
				if err != nil {
					return fail(err)
				}
				s.Clock.Run()
				e, ok := s.Cloud.File("alice", p.name)
				if !ok {
					return fail(fmt.Errorf("%v: not in the cloud after quiescence", p))
				}
				tr.RecordUpload(p.name, blob.Bytes(), e.Version)
			case opDelete:
				if err := s.FS.Delete(p.name); err != nil {
					return fail(err)
				}
				s.Clock.Run()
				if _, ok := s.Cloud.File("alice", p.name); ok {
					return fail(fmt.Errorf("%v: still live in the cloud after quiescence", p))
				}
				tr.RecordDelete(p.name)
			}
		}
	}
	s.Clock.Run()

	for _, name := range s.FS.Names() {
		e, ok := s.Cloud.File("alice", name)
		if !ok {
			continue // Check flags the miss via the tracked expectation
		}
		server[name] = invariant.ServerFile{Data: e.Blob.Bytes(), Version: e.Version}
	}
	up, _ := s.Capture.Since(capture.Mark{})
	// The capture has no independent receiver-side counter, so the
	// balance check is vacuous here; the TUE floor is the live one:
	// even with every retransmission charged, up-traffic must cover
	// the fresh content at least once.
	vs := tr.Check(server, invariant.Wire{ClientSent: up, ServerReceived: up, MaxLost: 0})
	// The attribution ledger must account for every simulated wire byte,
	// both directions, exactly.
	vs = append(vs, invariant.CheckLedger(s.Capture.TotalBytes(), led.Snapshot())...)
	return vs, up
}

// TestSimInvariants is the simulated half of the acceptance property:
// 200 seeded fault schedules × the scripts of the seeds' worlds through
// the netem/client/cloud stack.
func TestSimInvariants(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		ops := genWorld(seed).ops
		vs, up := runSim(seed, ops)
		if len(vs) > 0 {
			k := shrinkPrefix(len(ops), func(k int) bool {
				vs, _ := runSim(seed, ops[:k])
				return len(vs) > 0
			})
			t.Fatalf("seed %d: %d violation(s): %v\nminimal failing prefix (%d of %d ops): %v",
				seed, len(vs), vs, k, len(ops), ops[:k])
		}
		// Fault schedules are drawn from the profile's own seed, so a
		// replay of the same seed must cost byte-identical traffic.
		if seed%25 == 0 {
			if again, up2 := runSim(seed, ops); len(again) != 0 || up2 != up {
				t.Fatalf("seed %d: replay diverged (violations %v, up %d then %d)", seed, again, up, up2)
			}
		}
	}
}
