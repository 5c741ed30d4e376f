package capture

import (
	"testing"
	"testing/quick"

	"cloudsync/internal/obs/ledger"
)

func TestDirectionString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Fatal("Direction.String mismatch")
	}
}

func TestRecordAccumulates(t *testing.T) {
	c := New()
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 1500, App: 1400})
	c.Record(Packet{Dir: Up, Cause: ledger.Metadata, Wire: 300, App: 200})
	c.Record(Packet{Dir: Down, Cause: ledger.Framing, Wire: 66, App: 0})

	if got := c.TotalBytes(); got != 1866 {
		t.Fatalf("TotalBytes = %d, want 1866", got)
	}
	if got := c.UpBytes(); got != 1800 {
		t.Fatalf("UpBytes = %d, want 1800", got)
	}
	if got := c.DownBytes(); got != 66 {
		t.Fatalf("DownBytes = %d, want 66", got)
	}
	if got := c.OverheadBytes(); got != 266 {
		t.Fatalf("OverheadBytes = %d, want 266", got)
	}
}

func TestRecordValidation(t *testing.T) {
	cases := []Packet{
		{Cause: ledger.Payload, Wire: 0, App: 0},
		{Cause: ledger.Payload, Wire: -5, App: 0},
		{Cause: ledger.Payload, Wire: 100, App: 200},
		{Cause: ledger.Payload, Wire: 100, App: -1},
		{Cause: ledger.Unset, Wire: 100, App: 10},
		{Cause: ledger.NumCauses, Wire: 100, App: 10},
		{Cause: ledger.NumCauses + 1, Wire: 100, App: 0},
	}
	for i, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Record(%+v) did not panic", i, p)
				}
			}()
			New().Record(p)
		}()
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 100, App: 80})
	c.Record(Packet{Dir: Down, Cause: ledger.Payload, Wire: 60, App: 20})
	c.Reset()
	if c.TotalBytes() != 0 || c.OverheadBytes() != 0 {
		t.Fatal("Reset did not clear capture")
	}
}

func TestMarkSince(t *testing.T) {
	c := New()
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 100, App: 80})
	m := c.Mark()
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 40, App: 30})
	c.Record(Packet{Dir: Down, Cause: ledger.Payload, Wire: 60, App: 20})
	up, down := c.Since(m)
	if up != 40 || down != 60 {
		t.Fatalf("Since = (%d,%d), want (40,60)", up, down)
	}
}

// Property: the attached ledger's total always equals the capture's
// wire total, the directions sum to it, and overhead is never negative.
func TestPropertyTotalsConsistent(t *testing.T) {
	type rec struct {
		Cause uint8
		Dir   bool
		Wire  uint16
		App   uint16
	}
	f := func(recs []rec) bool {
		c := New()
		led := ledger.New()
		c.SetLedger(led)
		for _, r := range recs {
			wire := int(r.Wire) + 1
			app := min(int(r.App), wire)
			d := Up
			if r.Dir {
				d = Down
			}
			cause := ledger.Cause(1 + int(r.Cause)%int(ledger.NumCauses-1))
			c.Record(Packet{Dir: d, Cause: cause, Wire: wire, App: app})
		}
		return led.Total() == c.TotalBytes() &&
			c.OverheadBytes() >= 0 &&
			c.UpBytes()+c.DownBytes() == c.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
