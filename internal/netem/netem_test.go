package netem

import (
	"testing"
	"time"

	"cloudsync/internal/capture"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/simclock"
	"cloudsync/internal/wire"
)

func newPath(t *testing.T, link Link, persistent bool) (*Path, *capture.Capture, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	cap := capture.New()
	conn := wire.NewConn(wire.DefaultParams(), cap)
	return NewPath(clk, link, conn, persistent), cap, clk
}

// connCosts prices, on a scratch connection, one handshake, one FIN
// exchange and the framing of one request with the given bodies.
func connCosts(upApp, downApp int) (handshake, fin, framing int64) {
	cap := capture.New()
	c := wire.NewConn(wire.DefaultParams(), cap)
	hsUp, hsDown := c.Open()
	up, down := c.Request(upApp, downApp, ledger.Metadata)
	open := cap.TotalBytes()
	c.Close()
	return int64(hsUp + hsDown), cap.TotalBytes() - open, int64(up + down - upApp - downApp)
}

func TestLinkTimes(t *testing.T) {
	l := Custom(8_000_000, 100*time.Millisecond) // 1 MB/s
	if got := l.UpTime(1_000_000); got != time.Second {
		t.Fatalf("UpTime(1MB@1MB/s) = %v, want 1s", got)
	}
	if got := l.DownTime(500_000); got != 500*time.Millisecond {
		t.Fatalf("DownTime = %v", got)
	}
}

func TestLinkPresets(t *testing.T) {
	mn, bj := Minnesota(), Beijing()
	if mn.UpBps <= bj.UpBps {
		t.Fatal("MN should be faster than BJ")
	}
	if mn.RTT >= bj.RTT {
		t.Fatal("MN should have lower latency than BJ")
	}
}

func TestLinkValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-bandwidth link did not panic")
		}
	}()
	Link{UpBps: 0, DownBps: 1, RTT: 0}.UpTime(1)
}

func TestDoHandshakeThenRequest(t *testing.T) {
	p, cap, clk := newPath(t, Minnesota(), true)
	led := ledger.New()
	cap.SetLedger(led)
	var end time.Duration
	p.Do([]Exchange{{UpApp: 10_000, DownApp: 100, Cause: ledger.Payload}}, 0,
		func() { end = clk.Now() })
	clk.Run()
	if end == 0 {
		t.Fatal("done callback never ran")
	}
	// At least handshake RTTs plus one exchange RTT.
	if min := time.Duration(wire.HandshakeRTTs+1) * p.Link().RTT; end < min {
		t.Fatalf("end = %v, want ≥ %v", end, min)
	}
	if got := led.Get(ledger.Payload); got != 10_100 {
		t.Fatalf("payload = %d, want the exchange's 10100 app bytes", got)
	}
	// One handshake and the request's framing, and no FIN: a persistent
	// path keeps its connection open.
	hs, _, framing := connCosts(10_000, 100)
	if got := led.Get(ledger.Framing); got != hs+framing {
		t.Fatalf("framing = %d, want handshake %d + request framing %d", got, hs, framing)
	}
	if led.Total() != cap.TotalBytes() {
		t.Fatalf("ledger total %d, capture total %d", led.Total(), cap.TotalBytes())
	}
}

func TestNonPersistentClosesConn(t *testing.T) {
	p, cap, clk := newPath(t, Minnesota(), false)
	led := ledger.New()
	cap.SetLedger(led)
	hs, fin, framing := connCosts(100, 0)
	for i := int64(1); i <= 2; i++ {
		p.Do([]Exchange{{UpApp: 100, Cause: ledger.Metadata}}, 0, nil)
		clk.Run()
		// Every session pays its own handshake and FIN.
		if got, want := led.Get(ledger.Framing), i*(hs+fin+framing); got != want {
			t.Fatalf("after %d sessions: overhead %d, want %d", i, got, want)
		}
	}
}

func TestPersistentReusesConn(t *testing.T) {
	p, cap, clk := newPath(t, Minnesota(), true)
	led := ledger.New()
	cap.SetLedger(led)
	hs, _, framing := connCosts(100, 0)
	for i := int64(1); i <= 3; i++ {
		p.Do([]Exchange{{UpApp: 100, Cause: ledger.Metadata}}, 0, nil)
		clk.Run()
		// One handshake in all: later sessions pay only their framing.
		if got, want := led.Get(ledger.Framing), hs+i*framing; got != want {
			t.Fatalf("after %d sessions: overhead %d, want %d", i, got, want)
		}
	}
}

func TestSessionsSerialize(t *testing.T) {
	p, _, clk := newPath(t, Custom(8_000_000, 100*time.Millisecond), true)
	var first, second time.Duration
	p.Do([]Exchange{{UpApp: 4_000_000, Cause: ledger.Payload}}, 0,
		func() { first = clk.Now() })
	if !p.Busy() {
		t.Fatal("path should be busy right after Do")
	}
	// Queue a second session immediately: it must start after the first
	// completes.
	p.Do([]Exchange{{UpApp: 4_000_000, Cause: ledger.Payload}}, 0,
		func() { second = clk.Now() })
	clk.Run()
	if second <= first {
		t.Fatalf("second session ended at %v, not after first %v", second, first)
	}
	// The second transfer alone takes 4 s at 1 MB/s; it must not overlap.
	if second-first < 3*time.Second {
		t.Fatalf("sessions overlapped: first=%v second=%v", first, second)
	}
	if p.Sessions() != 2 {
		t.Fatalf("Sessions = %d", p.Sessions())
	}
}

func TestBandwidthScalesDuration(t *testing.T) {
	var ends [2]time.Duration
	for i, bps := range []int64{1_600_000, 20_000_000} {
		p, _, clk := newPath(t, Custom(bps, 60*time.Millisecond), true)
		p.Do([]Exchange{{UpApp: 1 << 20, Cause: ledger.Payload}}, 0,
			func() { ends[i] = clk.Now() })
		clk.Run()
	}
	if ends[0] <= ends[1] {
		t.Fatalf("slow link (%v) should take longer than fast link (%v)", ends[0], ends[1])
	}
	ratio := float64(ends[0]) / float64(ends[1])
	if ratio < 5 {
		t.Fatalf("1 MB at 1.6 vs 20 Mbps: duration ratio %.1f, want > 5", ratio)
	}
}

func TestLatencyScalesDuration(t *testing.T) {
	var ends [2]time.Duration
	for i, rtt := range []time.Duration{40 * time.Millisecond, time.Second} {
		p, _, clk := newPath(t, Custom(20_000_000, rtt), true)
		p.Do([]Exchange{
			{UpApp: 1000, Cause: ledger.Metadata},
			{UpApp: 1000, Cause: ledger.Metadata, ExtraRTTs: 1},
		}, 0, func() { ends[i] = clk.Now() })
		clk.Run()
	}
	// 5 handshake+exchange+extra RTTs at 1 s ≫ everything at 40 ms.
	if ends[1] < 5*time.Second {
		t.Fatalf("high-latency session = %v, want ≥ 5s", ends[1])
	}
	if ends[0] > time.Second {
		t.Fatalf("low-latency session = %v, want < 1s", ends[0])
	}
}

func TestServerTimeAdds(t *testing.T) {
	p1, _, clk1 := newPath(t, Minnesota(), true)
	p2, _, clk2 := newPath(t, Minnesota(), true)
	var e1, e2 time.Duration
	ex := []Exchange{{UpApp: 100, Cause: ledger.Metadata}}
	p1.Do(ex, 0, func() { e1 = clk1.Now() })
	p2.Do(ex, 2*time.Second, func() { e2 = clk2.Now() })
	clk1.Run()
	clk2.Run()
	if d := e2 - e1; d != 2*time.Second {
		t.Fatalf("server time added %v, want 2s", d)
	}
}

func TestNegativeExchangePanics(t *testing.T) {
	p, _, _ := newPath(t, Minnesota(), true)
	defer func() {
		if recover() == nil {
			t.Fatal("negative exchange did not panic")
		}
	}()
	p.Do([]Exchange{{UpApp: -1}}, 0, nil)
}

func TestPush(t *testing.T) {
	p, cap, clk := newPath(t, Minnesota(), true)
	led := ledger.New()
	cap.SetLedger(led)
	var end time.Duration
	p.Push(500, func() { end = clk.Now() })
	clk.Run()
	if end == 0 {
		t.Fatal("push callback never ran")
	}
	if _, down := cap.Since(capture.Mark{}); down == 0 {
		t.Fatal("push recorded no downstream traffic")
	}
	if got := led.Get(ledger.Metadata); got != 500 {
		t.Fatalf("push metadata bytes = %d, want 500", got)
	}
}

func TestNewPathValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPath(nil) did not panic")
		}
	}()
	NewPath(nil, Minnesota(), nil, true)
}

func TestSetLink(t *testing.T) {
	p, _, _ := newPath(t, Minnesota(), true)
	p.SetLink(Beijing())
	if p.Link().UpBps != Beijing().UpBps {
		t.Fatal("SetLink did not apply")
	}
}
