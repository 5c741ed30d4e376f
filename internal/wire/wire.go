// Package wire models the framing overhead of the protocol stack that
// commercial cloud storage clients speak: HTTPS over TLS over TCP/IP.
//
// All six services studied in the paper encrypt their application-layer
// data, so the measurement methodology treats the stack below the sync
// protocol as a cost model: every application byte sent also costs HTTP
// headers, TLS record framing, per-segment TCP/IP headers, pure ACKs on
// the reverse path, and — for fresh connections — TCP and TLS
// handshakes. Conn applies that cost model and records the resulting
// packets into a capture.Capture.
package wire

import (
	"cloudsync/internal/capture"
	"cloudsync/internal/obs/ledger"
)

// Params describes the framing cost model. DefaultParams returns values
// representative of the 2014-era HTTPS stacks the paper measured.
type Params struct {
	// MSS is the TCP maximum segment size (payload bytes per segment).
	MSS int
	// SegHeader is the per-segment overhead: Ethernet + IP + TCP headers
	// as Wireshark counts them on the wire.
	SegHeader int
	// TLSRecordSize is the maximum plaintext per TLS record.
	TLSRecordSize int
	// TLSRecordOverhead is the per-record framing cost (header + MAC +
	// padding amortised).
	TLSRecordOverhead int
	// HTTPRequestHeader and HTTPResponseHeader approximate the header
	// block sizes of one API request/response pair.
	HTTPRequestHeader  int
	HTTPResponseHeader int
	// TCPHandshakeSegments is the number of empty segments exchanged to
	// open a connection (SYN, SYN-ACK, ACK).
	TCPHandshakeSegments int
	// TLSHandshakeUp and TLSHandshakeDown are the handshake byte costs
	// (ClientHello + key exchange up; ServerHello + certificate chain
	// down).
	TLSHandshakeUp   int
	TLSHandshakeDown int
	// AckEverySegments is how many data segments one pure ACK covers
	// (delayed ACK).
	AckEverySegments int
	// CloseSegments is the FIN/ACK exchange cost in segments, split
	// evenly between directions.
	CloseSegments int
}

// DefaultParams returns the standard cost model used by the experiment
// harness.
func DefaultParams() Params {
	return Params{
		MSS:                  1460,
		SegHeader:            66,
		TLSRecordSize:        16 * 1024,
		TLSRecordOverhead:    29,
		HTTPRequestHeader:    420,
		HTTPResponseHeader:   230,
		TCPHandshakeSegments: 3,
		TLSHandshakeUp:       1310,
		TLSHandshakeDown:     4120,
		AckEverySegments:     2,
		CloseSegments:        4,
	}
}

// FrameSize reports the on-the-wire cost of sending app application
// bytes over an established connection in one direction, and the wire
// size of the pure-ACK traffic it provokes on the reverse path.
func (p Params) FrameSize(app int) (wire, ackWire int) {
	if app < 0 {
		panic("wire: FrameSize with negative size")
	}
	records := (app + p.TLSRecordSize - 1) / p.TLSRecordSize
	if records == 0 {
		records = 1 // even an empty message is one record
	}
	tls := app + records*p.TLSRecordOverhead
	segments := (tls + p.MSS - 1) / p.MSS
	if segments == 0 {
		segments = 1
	}
	wire = tls + segments*p.SegHeader
	acks := (segments + p.AckEverySegments - 1) / p.AckEverySegments
	return wire, acks * p.SegHeader
}

// HandshakeRTTs is the number of round trips a fresh HTTPS connection
// costs before the first request can be sent (TCP 3-way + TLS 1.2 full
// handshake).
const HandshakeRTTs = 3

// Conn is a simulated HTTPS connection between a client and the cloud.
// It tracks whether the connection is established and records every
// transmission into the capture. Handshake, FIN and ACK bytes are
// charged to ledger.Framing; a request's payload to the cause its
// caller names.
type Conn struct {
	params Params
	cap    *capture.Capture
	open   bool
}

// NewConn returns a closed connection recording into cap.
func NewConn(params Params, cap *capture.Capture) *Conn {
	if cap == nil {
		panic("wire: NewConn with nil capture")
	}
	return &Conn{params: params, cap: cap}
}

// Established reports whether the connection is currently open.
func (c *Conn) Established() bool { return c.open }

// Params returns the cost model in use.
func (c *Conn) Params() Params { return c.params }

func (c *Conn) record(dir capture.Direction, cause ledger.Cause, wire, app int) {
	c.cap.Record(capture.Packet{Dir: dir, Cause: cause, Wire: wire, App: app})
}

// Open establishes the connection if needed, recording TCP and TLS
// handshake traffic. It reports the wire bytes spent in each direction
// (zero if already open).
func (c *Conn) Open() (up, down int) {
	if c.open {
		return 0, 0
	}
	c.open = true
	p := c.params
	// TCP 3-way handshake: SYN up, SYN-ACK down, ACK up.
	upSegs := (p.TCPHandshakeSegments + 1) / 2
	downSegs := p.TCPHandshakeSegments - upSegs
	// TLS handshake payloads ride on data segments.
	hsUp, hsUpAck := p.FrameSize(p.TLSHandshakeUp)
	hsDown, hsDownAck := p.FrameSize(p.TLSHandshakeDown)
	up = upSegs*p.SegHeader + hsUp + hsDownAck
	down = downSegs*p.SegHeader + hsDown + hsUpAck
	c.record(capture.Up, ledger.Framing, up, 0)
	c.record(capture.Down, ledger.Framing, down, 0)
	return up, down
}

// Request performs one HTTP request/response exchange over the open
// connection: upApp request-body bytes up, downApp response-body bytes
// down, plus headers, TLS records, segment headers, and reverse-path
// ACKs. Both bodies are charged to cause, everything else to framing.
// It panics if the connection is not established — callers must Open
// first, so handshake costs are never silently omitted. It reports
// wire bytes per direction.
func (c *Conn) Request(upApp, downApp int, cause ledger.Cause) (up, down int) {
	if !c.open {
		panic("wire: Request on closed connection")
	}
	p := c.params
	reqWire, reqAck := p.FrameSize(upApp + p.HTTPRequestHeader)
	respWire, respAck := p.FrameSize(downApp + p.HTTPResponseHeader)
	// Each direction carries its own body plus the ACKs of the other's.
	up, down = reqWire+respAck, respWire+reqAck
	c.record(capture.Up, cause, up, upApp)
	c.record(capture.Down, cause, down, downApp)
	return up, down
}

// Push sends app bytes of server-initiated control traffic (a
// notification) down the open connection, without HTTP request/response
// semantics, and records the client's ACKs up.
func (c *Conn) Push(app int) {
	if !c.open {
		panic("wire: Push on closed connection")
	}
	w, ack := c.params.FrameSize(app)
	c.record(capture.Down, ledger.Metadata, w, app)
	if ack > 0 {
		c.record(capture.Up, ledger.Framing, ack, 0)
	}
}

// Close tears the connection down, recording the FIN exchange. Closing
// a closed connection is a no-op.
func (c *Conn) Close() {
	if !c.open {
		return
	}
	c.open = false
	p := c.params
	upSegs := p.CloseSegments / 2
	downSegs := p.CloseSegments - upSegs
	if upSegs > 0 {
		c.record(capture.Up, ledger.Framing, upSegs*p.SegHeader, 0)
	}
	if downSegs > 0 {
		c.record(capture.Down, ledger.Framing, downSegs*p.SegHeader, 0)
	}
}
