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
	led := ledger.New()
	c.SetLedger(led)
	c.Record(Packet{Dir: Up, Cause: ledger.Payload, Wire: 1500, App: 1400})
	c.Record(Packet{Dir: Up, Cause: ledger.Metadata, Wire: 300, App: 200})
	c.Record(Packet{Dir: Down, Cause: ledger.Framing, Wire: 66, App: 0})

	if got := c.TotalBytes(); got != 1866 {
		t.Fatalf("TotalBytes = %d, want 1866", got)
	}
	if up, down := c.Since(Mark{}); up != 1800 || down != 66 {
		t.Fatalf("Since(start) = (%d,%d), want (1800,66)", up, down)
	}
	if got := led.Get(ledger.Framing); got != 266 {
		t.Fatalf("framing = %d, want 266", got)
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
	if c.TotalBytes() != 0 {
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
// wire total, and the directions sum to it.
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
		up, down := c.Since(Mark{})
		return led.Total() == c.TotalBytes() && up+down == c.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
