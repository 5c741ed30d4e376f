package wire

import (
	"testing"
	"testing/quick"

	"cloudsync/internal/capture"
	"cloudsync/internal/kerneltest"
	"cloudsync/internal/obs/ledger"
)

func newConn(c *capture.Capture) *Conn {
	return NewConn(DefaultParams(), c)
}

func TestFrameSizeSmall(t *testing.T) {
	p := DefaultParams()
	wire, ack := p.FrameSize(100)
	if wire != 100+p.TLSRecordOverhead+p.SegHeader {
		t.Fatalf("wire = %d, want one record in one segment", wire)
	}
	if ack != p.SegHeader {
		t.Fatalf("ack = %d", ack)
	}
}

func TestFrameSizeEmpty(t *testing.T) {
	p := DefaultParams()
	if wire, _ := p.FrameSize(0); wire != p.TLSRecordOverhead+p.SegHeader {
		t.Fatalf("empty frame: wire=%d", wire)
	}
}

func TestFrameSizeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FrameSize(-1) did not panic")
		}
	}()
	DefaultParams().FrameSize(-1)
}

func TestFrameSizeLarge(t *testing.T) {
	p := DefaultParams()
	app := 1 << 20
	wire, ack := p.FrameSize(app)
	records := (app + p.TLSRecordSize - 1) / p.TLSRecordSize
	wantTLS := app + records*p.TLSRecordOverhead
	segs := (wantTLS + p.MSS - 1) / p.MSS
	if wire != wantTLS+segs*p.SegHeader {
		t.Fatalf("wire = %d, want %d", wire, wantTLS+segs*p.SegHeader)
	}
	if want := (segs + p.AckEverySegments - 1) / p.AckEverySegments * p.SegHeader; ack != want {
		t.Fatalf("ack = %d, want %d", ack, want)
	}
	// Overhead for a 1 MB transfer should be a few percent, not more.
	overhead := float64(wire+ack-app) / float64(app)
	if overhead < 0.03 || overhead > 0.09 {
		t.Fatalf("1MB overhead fraction = %.4f, want ~0.05", overhead)
	}
}

func TestOpenRecordsHandshake(t *testing.T) {
	cap := capture.New()
	led := ledger.New()
	cap.SetLedger(led)
	c := newConn(cap)
	if c.Established() {
		t.Fatal("new connection should be closed")
	}
	up, down := c.Open()
	if !c.Established() {
		t.Fatal("Open did not establish")
	}
	if up <= 0 || down <= 0 {
		t.Fatalf("handshake bytes = (%d,%d)", up, down)
	}
	// TLS cert chain dominates: down should exceed up.
	if down <= up {
		t.Fatalf("handshake down (%d) should exceed up (%d)", down, up)
	}
	if gotUp, gotDown := cap.Since(capture.Mark{}); gotUp != int64(up) || gotDown != int64(down) {
		t.Fatalf("capture (%d,%d), want (%d,%d)", gotUp, gotDown, up, down)
	}
	// Everything is overhead: no app payload.
	if led.Get(ledger.Framing) != cap.TotalBytes() {
		t.Fatalf("handshake overhead %d of %d wire bytes", led.Get(ledger.Framing), cap.TotalBytes())
	}
	// Re-open is free.
	up2, down2 := c.Open()
	if up2 != 0 || down2 != 0 || cap.TotalBytes() != int64(up+down) {
		t.Fatal("re-open of established connection should be a no-op")
	}
}

func TestRequestOnClosedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Request on closed conn did not panic")
		}
	}()
	newConn(capture.New()).Request(10, 10, ledger.Payload)
}

func TestPushOnClosedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Push on closed conn did not panic")
		}
	}()
	newConn(capture.New()).Push(10)
}

func TestRequestAccounting(t *testing.T) {
	cap := capture.New()
	led := ledger.New()
	cap.SetLedger(led)
	c := newConn(cap)
	c.Open()
	m := cap.Mark()
	up, down := c.Request(1000, 200, ledger.Payload)
	gotUp, gotDown := cap.Since(m)
	if gotUp != int64(up) || gotDown != int64(down) {
		t.Fatalf("capture (%d,%d) != returned (%d,%d)", gotUp, gotDown, up, down)
	}
	// The handshake carried no payload, so every app byte is the request's.
	if app := cap.TotalBytes() - led.Get(ledger.Framing); app != 1200 {
		t.Fatalf("app bytes = %d, want 1200", app)
	}
	if up <= 1000 || down <= 200 {
		t.Fatalf("framing added nothing: up=%d down=%d", up, down)
	}
}

// TestConnChargesEveryByte drives each Conn method on a capture with a
// ledger attached and checks, after every call, the bytes per
// direction and per cause against the cost model: a request's bodies go
// to the cause its caller names, a push's to metadata, and every
// handshake, header, ACK and FIN byte to framing. The ledger total must
// equal the capture's wire total throughout.
func TestConnChargesEveryByte(t *testing.T) {
	p := DefaultParams()
	cap := capture.New()
	led := ledger.New()
	cap.SetLedger(led)
	c := newConn(cap)

	// Each row is one call and the bytes it must put on the wire: up and
	// down in total, of which app are charged to cause and the rest to
	// framing.
	type row struct {
		name     string
		call     func()
		up, down int
		cause    ledger.Cause
		app      int
	}
	// Open: the TCP handshake's empty segments plus both TLS flights,
	// each direction also carrying the ACKs of the other's flight.
	hsUp, hsUpAck := p.FrameSize(p.TLSHandshakeUp)
	hsDown, hsDownAck := p.FrameSize(p.TLSHandshakeDown)
	syn := (p.TCPHandshakeSegments + 1) / 2
	rows := []row{{"Open", func() { c.Open() },
		syn*p.SegHeader + hsUp + hsDownAck,
		(p.TCPHandshakeSegments-syn)*p.SegHeader + hsDown + hsUpAck,
		ledger.Framing, 0}}
	for i, cause := range ledger.Causes() {
		upApp, downApp := 1000*(i+1), 3*(i+1)<<10
		req, reqAck := p.FrameSize(upApp + p.HTTPRequestHeader)
		resp, respAck := p.FrameSize(downApp + p.HTTPResponseHeader)
		rows = append(rows, row{"Request " + cause.String(), func() { c.Request(upApp, downApp, cause) },
			req + respAck, resp + reqAck, cause, upApp + downApp})
	}
	push, pushAck := p.FrameSize(500)
	fin := p.CloseSegments / 2
	rows = append(rows,
		row{"Push", func() { c.Push(500) }, pushAck, push, ledger.Metadata, 500},
		row{"Close", func() { c.Close() }, fin * p.SegHeader, (p.CloseSegments - fin) * p.SegHeader, ledger.Framing, 0})

	var want [ledger.NumCauses]int64
	var wantUp, wantDown int64
	for _, r := range rows {
		r.call()
		wantUp += int64(r.up)
		wantDown += int64(r.down)
		want[r.cause] += int64(r.app)
		want[ledger.Framing] += int64(r.up + r.down - r.app)
		if up, down := cap.Since(capture.Mark{}); up != wantUp || down != wantDown {
			t.Errorf("%s: capture (up %d, down %d), want (%d, %d)",
				r.name, up, down, wantUp, wantDown)
		}
		for _, k := range ledger.Causes() {
			if got := led.Get(k); got != want[k] {
				t.Errorf("%s: %s = %d, want %d", r.name, k, got, want[k])
			}
		}
		if led.Total() != cap.TotalBytes() {
			t.Errorf("%s: ledger total %d != capture total %d", r.name, led.Total(), cap.TotalBytes())
		}
	}

	if kerneltest.Race {
		t.Log("allocation check skipped: the race detector skews allocation counts")
		return
	}
	c.Open()
	if n := testing.AllocsPerRun(100, func() { c.Request(512, 64, ledger.Payload) }); n != 0 {
		t.Errorf("Request on an open connection allocates %.0f times, want 0", n)
	}
}

func TestCloseRecordsFin(t *testing.T) {
	cap := capture.New()
	c := newConn(cap)
	c.Open()
	before := cap.TotalBytes()
	c.Close()
	if c.Established() {
		t.Fatal("Close did not close")
	}
	if cap.TotalBytes() <= before {
		t.Fatal("Close recorded no traffic")
	}
	after := cap.TotalBytes()
	c.Close() // double close is a no-op
	if cap.TotalBytes() != after {
		t.Fatal("double Close recorded traffic")
	}
}

func TestReopenCountsHandshakeAgain(t *testing.T) {
	cap := capture.New()
	led := ledger.New()
	cap.SetLedger(led)
	c := newConn(cap)
	up1, down1 := c.Open()
	c.Close()
	closed := cap.TotalBytes()
	up2, down2 := c.Open()
	if up2 != up1 || down2 != down1 {
		t.Fatalf("re-open cost (%d,%d), want the first handshake's (%d,%d)", up2, down2, up1, down1)
	}
	if got := cap.TotalBytes() - closed; got != int64(up1+down1) {
		t.Fatalf("re-open recorded %d bytes, want one handshake's %d", got, up1+down1)
	}
	if led.Get(ledger.Framing) != cap.TotalBytes() {
		t.Fatal("handshakes and FIN carried payload")
	}
}

func TestNewConnNilCapturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewConn(nil capture) did not panic")
		}
	}()
	NewConn(DefaultParams(), nil)
}

// Property: framing is monotone (more app bytes never costs less wire)
// and overhead per byte shrinks as payload grows.
func TestPropertyFrameMonotone(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint32) bool {
		x, y := int(a%(1<<22)), int(b%(1<<22))
		if x > y {
			x, y = y, x
		}
		wx, ax := p.FrameSize(x)
		wy, ay := p.FrameSize(y)
		return wx+ax <= wy+ay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: wire size always ≥ app size, and overhead fraction for
// ≥64 KB payloads stays below 10%.
func TestPropertyOverheadBounds(t *testing.T) {
	p := DefaultParams()
	f := func(a uint32) bool {
		app := int(a % (8 << 20))
		w, ack := p.FrameSize(app)
		if w < app {
			return false
		}
		if app >= 64<<10 {
			frac := float64(w+ack-app) / float64(app)
			return frac < 0.10
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
