// Package capture is the simulation's packet-capture substrate — the
// stand-in for the Wireshark measurements in the paper.
//
// Actors that put bytes on a simulated link record them here as Packet
// entries carrying both the on-the-wire size and the application payload
// size, so a Capture can answer the two questions every experiment asks:
// how much total sync traffic was used, and how much of it was overhead
// (total − payload). Flows and Endpoints are comparable values usable as
// map keys, following the gopacket model.
package capture

import (
	"fmt"
	"time"

	"cloudsync/internal/obs/ledger"
)

// Endpoint identifies one side of a flow (for example "client:M1" or
// "cloud:dropbox"). Endpoints are comparable and usable as map keys.
type Endpoint string

// Flow is a directed (source, destination) endpoint pair.
type Flow struct {
	Src, Dst Endpoint
}

// Reverse returns the flow with source and destination swapped.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

// String renders the flow as "src->dst".
func (f Flow) String() string { return string(f.Src) + "->" + string(f.Dst) }

// Direction classifies traffic relative to the user client, using the
// paper's convention: inbound traffic flows client→cloud (uploads) and
// outbound traffic flows cloud→client (downloads).
type Direction uint8

const (
	// Up is client→cloud ("inbound" in the paper's provider-centric terms).
	Up Direction = iota
	// Down is cloud→client ("outbound").
	Down
)

// String returns "up" or "down".
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Kind classifies what a packet carries, so overhead can be broken down
// by cause the way § 4.1 of the paper discusses.
type Kind uint8

const (
	// KindHandshake covers TCP/TLS connection establishment and teardown.
	KindHandshake Kind = iota
	// KindData carries file content payload.
	KindData
	// KindAck is a pure transport acknowledgement.
	KindAck
	// KindControl carries sync-protocol messages: index updates, commit
	// requests, notifications, status traffic.
	KindControl
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindHandshake:
		return "handshake"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is one recorded transmission. A Packet may aggregate the
// segments of a single logical message; Segments reports how many wire
// segments it represents.
type Packet struct {
	// Time is the virtual time at which transmission began.
	Time time.Duration
	Flow Flow
	Dir  Direction
	Kind Kind
	// Wire is the total on-the-wire size in bytes, including transport
	// and record-layer framing.
	Wire int
	// App is the application payload carried (file content or protocol
	// message body). Wire − App is framing overhead.
	App int
	// Segments is the number of MSS-sized wire segments aggregated in
	// this entry (≥ 1).
	Segments int
	// Cause attributes the App bytes of this packet when a ledger is
	// attached. ledger.Unset means "derive from Kind": data→payload,
	// control→metadata, handshake/ack→framing.
	Cause ledger.Cause
}

// DirStats accumulates per-direction totals.
type DirStats struct {
	WireBytes int64
	AppBytes  int64
	Packets   int64
	Segments  int64
}

// Capture accumulates traffic statistics. The zero value is a valid
// capture.
type Capture struct {
	dir   [2]DirStats
	kind  [numKinds]int64
	flows map[Flow]*DirStats
	led   *ledger.Ledger
}

// SetLedger attaches a traffic-attribution ledger. Every subsequently
// recorded packet charges its App bytes to its (effective) Cause and
// its Wire−App overhead to ledger.Framing, so the ledger's total always
// equals the capture's wire-byte total from the attach point on.
// Reset does not clear or detach the ledger; pass nil to detach.
func (c *Capture) SetLedger(l *ledger.Ledger) { c.led = l }

// Ledger returns the attached ledger, or nil.
func (c *Capture) Ledger() *ledger.Ledger { return c.led }

// effectiveCause resolves a packet's charge cause, defaulting by kind.
func effectiveCause(p Packet) ledger.Cause {
	if p.Cause != ledger.Unset {
		return p.Cause
	}
	switch p.Kind {
	case KindData:
		return ledger.Payload
	case KindControl:
		return ledger.Metadata
	default: // handshake, ack: pure transport
		return ledger.Framing
	}
}

// New returns an empty capture.
func New() *Capture { return &Capture{} }

// Record adds one packet to the capture. Packets with non-positive wire
// size or App > Wire panic: they indicate an accounting bug in the
// framing layer.
func (c *Capture) Record(p Packet) {
	if p.Wire <= 0 {
		panic(fmt.Sprintf("capture: Record with Wire=%d", p.Wire))
	}
	if p.App > p.Wire {
		panic(fmt.Sprintf("capture: Record with App=%d > Wire=%d", p.App, p.Wire))
	}
	if p.App < 0 {
		panic(fmt.Sprintf("capture: Record with App=%d", p.App))
	}
	if p.Segments < 1 {
		p.Segments = 1
	}
	ds := &c.dir[p.Dir]
	ds.WireBytes += int64(p.Wire)
	ds.AppBytes += int64(p.App)
	ds.Packets++
	ds.Segments += int64(p.Segments)
	c.kind[p.Kind] += int64(p.Wire)
	if c.flows == nil {
		c.flows = make(map[Flow]*DirStats)
	}
	fs := c.flows[p.Flow]
	if fs == nil {
		fs = &DirStats{}
		c.flows[p.Flow] = fs
	}
	fs.WireBytes += int64(p.Wire)
	fs.AppBytes += int64(p.App)
	fs.Packets++
	fs.Segments += int64(p.Segments)
	if c.led != nil {
		// App → cause, overhead → framing: each packet contributes
		// exactly Wire bytes, so sum(causes) == TotalBytes by
		// construction.
		c.led.Add(effectiveCause(p), int64(p.App))
		c.led.Add(ledger.Framing, int64(p.Wire-p.App))
	}
}

// TotalBytes reports total wire bytes in both directions — the "total
// data sync traffic" numerator of TUE.
func (c *Capture) TotalBytes() int64 {
	return c.dir[Up].WireBytes + c.dir[Down].WireBytes
}

// UpBytes reports client→cloud wire bytes.
func (c *Capture) UpBytes() int64 { return c.dir[Up].WireBytes }

// DownBytes reports cloud→client wire bytes.
func (c *Capture) DownBytes() int64 { return c.dir[Down].WireBytes }

// AppBytes reports total application payload bytes in both directions.
func (c *Capture) AppBytes() int64 {
	return c.dir[Up].AppBytes + c.dir[Down].AppBytes
}

// OverheadBytes reports total framing-plus-control overhead: wire bytes
// that did not carry file content or protocol message payload.
func (c *Capture) OverheadBytes() int64 { return c.TotalBytes() - c.AppBytes() }

// Packets reports the number of recorded packet entries.
func (c *Capture) Packets() int64 { return c.dir[Up].Packets + c.dir[Down].Packets }

// Segments reports the total number of wire segments.
func (c *Capture) Segments() int64 { return c.dir[Up].Segments + c.dir[Down].Segments }

// Dir returns the accumulated statistics for one direction.
func (c *Capture) Dir(d Direction) DirStats { return c.dir[d] }

// KindBytes reports total wire bytes recorded with the given kind.
func (c *Capture) KindBytes(k Kind) int64 {
	if int(k) >= int(numKinds) {
		return 0
	}
	return c.kind[k]
}

// FlowStats returns the accumulated statistics for one flow, or a zero
// value if the flow was never seen.
func (c *Capture) FlowStats(f Flow) DirStats {
	if fs := c.flows[f]; fs != nil {
		return *fs
	}
	return DirStats{}
}

// Flows returns the set of flows seen, in unspecified order.
func (c *Capture) Flows() []Flow {
	out := make([]Flow, 0, len(c.flows))
	for f := range c.flows {
		out = append(out, f)
	}
	return out
}

// Reset clears all counters.
func (c *Capture) Reset() {
	c.dir = [2]DirStats{}
	c.kind = [numKinds]int64{}
	c.flows = nil
}

// Mark returns a snapshot of the current totals, usable with Since to
// measure the traffic of one operation inside a longer capture.
func (c *Capture) Mark() Mark {
	return Mark{up: c.dir[Up].WireBytes, down: c.dir[Down].WireBytes,
		appUp: c.dir[Up].AppBytes, appDown: c.dir[Down].AppBytes}
}

// Mark is a totals snapshot; see Capture.Mark.
type Mark struct {
	up, down, appUp, appDown int64
}

// Since reports traffic recorded after the snapshot was taken.
func (c *Capture) Since(m Mark) (up, down, app int64) {
	up = c.dir[Up].WireBytes - m.up
	down = c.dir[Down].WireBytes - m.down
	app = (c.dir[Up].AppBytes - m.appUp) + (c.dir[Down].AppBytes - m.appDown)
	return up, down, app
}
