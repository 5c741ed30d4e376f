package obs_test

import (
	"testing"

	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
)

// TestDisabledTracingAllocatesNothing pins the nil-instrument contract
// for spans: with tracing off, every call instrumented code makes —
// attrs of every kind included — allocates nothing.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	var tr *obs.Tracer
	var sp *obs.Span
	var snap ledger.Snapshot
	snap[ledger.Payload] = 4096
	snap[ledger.Metadata] = 120
	user, n := "u001", int64(1<<20)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Start", func() { tr.Start("client.sync_round", obs.String("user", user), obs.Int("pending", n)) }},
		{"StartRemote", func() { tr.StartRemote("server.session", obs.TraceID{1}, 7, obs.String("user", user)) }},
		{"Child", func() { sp.Child("client.session", obs.Int("exchanges", n), obs.Bool("bundle", true)) }},
		{"Record", func() { tr.Record("net.session", 0, 1, obs.Int("exchanges", n), obs.Int("queued_us", n)) }},
		{"Set", func() { sp.Set(obs.Int("files", n), obs.String("error", user), obs.Bool("dedup_hit", true)) }},
		{"AttachTo", func() { snap.AttachTo(sp) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.call); allocs != 0 {
			t.Errorf("%s on a nil receiver: %.0f allocations, want 0", tc.name, allocs)
		}
	}
}
