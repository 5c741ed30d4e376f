package capture

import (
	"testing"
	"testing/quick"
)

var testFlow = Flow{Src: "client:M1", Dst: "cloud:dropbox"}

func TestFlowReverse(t *testing.T) {
	r := testFlow.Reverse()
	if r.Src != testFlow.Dst || r.Dst != testFlow.Src {
		t.Fatalf("Reverse() = %v", r)
	}
	if r.Reverse() != testFlow {
		t.Fatal("double Reverse should restore flow")
	}
}

func TestFlowString(t *testing.T) {
	if got := testFlow.String(); got != "client:M1->cloud:dropbox" {
		t.Fatalf("String() = %q", got)
	}
}

func TestDirectionString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Fatal("Direction.String mismatch")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindHandshake: "handshake",
		KindData:      "data",
		KindAck:       "ack",
		KindControl:   "control",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestRecordAccumulates(t *testing.T) {
	c := New()
	c.Record(Packet{Flow: testFlow, Dir: Up, Kind: KindData, Wire: 1500, App: 1400, Segments: 1})
	c.Record(Packet{Flow: testFlow, Dir: Up, Kind: KindControl, Wire: 300, App: 200})
	c.Record(Packet{Flow: testFlow.Reverse(), Dir: Down, Kind: KindAck, Wire: 66, App: 0})

	if got := c.TotalBytes(); got != 1866 {
		t.Fatalf("TotalBytes = %d, want 1866", got)
	}
	if got := c.UpBytes(); got != 1800 {
		t.Fatalf("UpBytes = %d, want 1800", got)
	}
	if got := c.DownBytes(); got != 66 {
		t.Fatalf("DownBytes = %d, want 66", got)
	}
	if got := c.AppBytes(); got != 1600 {
		t.Fatalf("AppBytes = %d, want 1600", got)
	}
	if got := c.OverheadBytes(); got != 266 {
		t.Fatalf("OverheadBytes = %d, want 266", got)
	}
	if got := c.Packets(); got != 3 {
		t.Fatalf("Packets = %d, want 3", got)
	}
	if got := c.KindBytes(KindData); got != 1500 {
		t.Fatalf("KindBytes(data) = %d", got)
	}
	if got := c.KindBytes(KindAck); got != 66 {
		t.Fatalf("KindBytes(ack) = %d", got)
	}
	if got := c.KindBytes(Kind(99)); got != 0 {
		t.Fatalf("KindBytes(unknown) = %d, want 0", got)
	}
}

func TestRecordValidation(t *testing.T) {
	cases := []Packet{
		{Flow: testFlow, Wire: 0, App: 0},
		{Flow: testFlow, Wire: -5, App: 0},
		{Flow: testFlow, Wire: 100, App: 200},
		{Flow: testFlow, Wire: 100, App: -1},
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

func TestSegmentsDefaultToOne(t *testing.T) {
	c := New()
	c.Record(Packet{Flow: testFlow, Dir: Up, Wire: 100, App: 50})
	if got := c.Segments(); got != 1 {
		t.Fatalf("Segments = %d, want 1", got)
	}
}

func TestFlowStats(t *testing.T) {
	c := New()
	other := Flow{Src: "client:M2", Dst: "cloud:box"}
	c.Record(Packet{Flow: testFlow, Dir: Up, Wire: 100, App: 80})
	c.Record(Packet{Flow: testFlow, Dir: Up, Wire: 50, App: 10})
	c.Record(Packet{Flow: other, Dir: Up, Wire: 7, App: 0})

	fs := c.FlowStats(testFlow)
	if fs.WireBytes != 150 || fs.AppBytes != 90 || fs.Packets != 2 {
		t.Fatalf("FlowStats = %+v", fs)
	}
	if got := c.FlowStats(Flow{Src: "x", Dst: "y"}); got != (DirStats{}) {
		t.Fatalf("unknown flow stats = %+v", got)
	}
	if got := len(c.Flows()); got != 2 {
		t.Fatalf("Flows() returned %d flows, want 2", got)
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Record(Packet{Flow: testFlow, Dir: Up, Wire: 100, App: 80})
	c.Reset()
	if c.TotalBytes() != 0 || c.Packets() != 0 || len(c.Flows()) != 0 {
		t.Fatal("Reset did not clear capture")
	}
}

func TestMarkSince(t *testing.T) {
	c := New()
	c.Record(Packet{Flow: testFlow, Dir: Up, Wire: 100, App: 80})
	m := c.Mark()
	c.Record(Packet{Flow: testFlow, Dir: Up, Wire: 40, App: 30})
	c.Record(Packet{Flow: testFlow.Reverse(), Dir: Down, Wire: 60, App: 20})
	up, down, app := c.Since(m)
	if up != 40 || down != 60 || app != 50 {
		t.Fatalf("Since = (%d,%d,%d), want (40,60,50)", up, down, app)
	}
}

// Property: totals always equal the sum over per-flow stats, and
// overhead is never negative.
func TestPropertyTotalsConsistent(t *testing.T) {
	type rec struct {
		FlowIdx uint8
		Dir     bool
		Wire    uint16
		App     uint16
	}
	flows := []Flow{
		{Src: "a", Dst: "b"}, {Src: "b", Dst: "a"}, {Src: "c", Dst: "d"},
	}
	f := func(recs []rec) bool {
		c := New()
		for _, r := range recs {
			wire := int(r.Wire) + 1
			app := int(r.App)
			if app > wire {
				app = wire
			}
			d := Up
			if r.Dir {
				d = Down
			}
			c.Record(Packet{Flow: flows[int(r.FlowIdx)%len(flows)], Dir: d, Wire: wire, App: app})
		}
		var flowSum int64
		for _, f := range c.Flows() {
			flowSum += c.FlowStats(f).WireBytes
		}
		return flowSum == c.TotalBytes() &&
			c.OverheadBytes() >= 0 &&
			c.UpBytes()+c.DownBytes() == c.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
