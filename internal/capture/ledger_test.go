package capture

import (
	"testing"

	"cloudsync/internal/obs/ledger"
)

// TestLedgerChargesEveryWireByte pins the charging rule: App bytes go
// to the packet's cause, Wire−App to framing, so the ledger total
// always equals the capture's wire total.
func TestLedgerChargesEveryWireByte(t *testing.T) {
	c := New()
	led := ledger.New()
	c.SetLedger(led)

	c.Record(Packet{Dir: Up, Cause: ledger.Framing, Wire: 500})
	c.Record(Packet{Dir: Up, Cause: ledger.Metadata, Wire: 300, App: 120})
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 1100, App: 1000})
	c.Record(Packet{Dir: Up, Cause: ledger.Retransmit, Wire: 90, App: 64})
	c.Record(Packet{Dir: Up, Cause: ledger.DedupProbe, Wire: 60, App: 16})
	c.Record(Packet{Dir: Down, Cause: ledger.Framing, Wire: 66})

	if got, want := led.Total(), c.TotalBytes(); got != want {
		t.Fatalf("ledger total %d != capture total %d", got, want)
	}
	checks := []struct {
		cause ledger.Cause
		want  int64
	}{
		{ledger.Metadata, 120},
		{ledger.Payload, 1000},
		{ledger.Retransmit, 64},
		{ledger.DedupProbe, 16},
		// framing = every framing packet's wire + every packet's Wire−App
		{ledger.Framing, 500 + 66 + (300 - 120) + (1100 - 1000) + (90 - 64) + (60 - 16)},
	}
	for _, ck := range checks {
		if got := led.Get(ck.cause); got != ck.want {
			t.Errorf("%s = %d, want %d", ck.cause, got, ck.want)
		}
	}
}

// TestLedgerDetachAndResetSurvival: Reset clears counters but keeps the
// ledger attached; SetLedger(nil) detaches.
func TestLedgerDetachAndResetSurvival(t *testing.T) {
	c := New()
	led := ledger.New()
	c.SetLedger(led)
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 10, App: 10})
	c.Reset()
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 5, App: 5})
	if got := led.Get(ledger.Payload); got != 15 {
		t.Fatalf("Payload = %d, want 15 (Reset keeps the ledger attached and does not reset it)", got)
	}
	c.SetLedger(nil)
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 5, App: 5})
	if got := led.Get(ledger.Payload); got != 15 {
		t.Fatalf("detached ledger still charged: %d", got)
	}
}
