// Package capture is the simulation's packet-capture substrate — the
// stand-in for the Wireshark measurements in the paper.
//
// Actors that put bytes on a simulated link record them here as Packet
// entries carrying the on-the-wire size, the application payload size
// and the cause the payload is charged to. A Capture keeps per-direction
// wire totals, which answer the question every experiment asks: how
// much total sync traffic was used. An attached cause ledger splits the
// same bytes by cause, framing overhead (Wire − App) among them.
package capture

import (
	"fmt"

	"cloudsync/internal/obs/ledger"
)

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

// Packet is one recorded transmission in one direction. It may
// aggregate the segments of a single logical message.
type Packet struct {
	Dir Direction
	// Cause is what the App bytes are charged to in an attached ledger;
	// Wire − App is charged to ledger.Framing.
	Cause ledger.Cause
	// Wire is the total on-the-wire size in bytes, including transport
	// and record-layer framing.
	Wire int
	// App is the application payload carried (file content or protocol
	// message body). Wire − App is framing overhead.
	App int
}

// Mark is a snapshot of a capture's wire totals; see Capture.Mark.
type Mark struct {
	wire [2]int64
}

// Capture accumulates per-direction wire totals. The zero value is a
// valid capture.
type Capture struct {
	sum Mark
	led *ledger.Ledger
}

// SetLedger attaches a traffic-attribution ledger. Every subsequently
// recorded packet charges its App bytes to its Cause and its Wire−App
// overhead to ledger.Framing, so the ledger's total always equals the
// capture's wire-byte total from the attach point on. Reset does not
// clear or detach the ledger; pass nil to detach.
func (c *Capture) SetLedger(l *ledger.Ledger) { c.led = l }

// New returns an empty capture.
func New() *Capture { return &Capture{} }

// Record adds one packet to the capture. A packet with non-positive
// wire size, App outside [0, Wire], or no cause panics: it indicates an
// accounting bug in the framing layer, and a causeless packet would
// leave its bytes out of the ledger.
func (c *Capture) Record(p Packet) {
	if p.Wire <= 0 || p.App < 0 || p.App > p.Wire ||
		p.Cause == ledger.Unset || p.Cause >= ledger.NumCauses {
		panic(fmt.Sprintf("capture: Record of invalid packet %+v", p))
	}
	c.sum.wire[p.Dir] += int64(p.Wire)
	// App → cause, overhead → framing: each packet contributes exactly
	// Wire bytes, so sum(causes) == TotalBytes by construction.
	c.led.Add(p.Cause, int64(p.App))
	c.led.Add(ledger.Framing, int64(p.Wire-p.App))
}

// TotalBytes reports total wire bytes in both directions — the "total
// data sync traffic" numerator of TUE.
func (c *Capture) TotalBytes() int64 { return c.sum.wire[Up] + c.sum.wire[Down] }

// Reset clears the totals.
func (c *Capture) Reset() { c.sum = Mark{} }

// Mark returns a snapshot of the current totals, usable with Since to
// measure the traffic of one operation inside a longer capture.
func (c *Capture) Mark() Mark { return c.sum }

// Since reports the wire bytes recorded in each direction after the
// snapshot was taken.
func (c *Capture) Since(m Mark) (up, down int64) {
	return c.sum.wire[Up] - m.wire[Up], c.sum.wire[Down] - m.wire[Down]
}
