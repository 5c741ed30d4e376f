package syncnet

import (
	"fmt"
	"net"

	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
	"cloudsync/internal/wire"
)

// wireConn is one end of a session's connection — the client's or the
// server's — with its byte bookkeeping: it meters every byte it reads
// and writes and, with a ledger, charges each to a cause (ledger.go), so
// that once settled the ledger total equals in+out exactly.
type wireConn struct {
	conn net.Conn

	// Pooled scratch: enc frames outgoing messages, readBuf absorbs
	// incoming ones (both from the wire frame pool, returned by settle),
	// segs is the reusable ledger-segment layout, vec a Data piece's
	// vectored send.
	enc     []byte
	readBuf []byte
	segs    []causeSeg
	vec     net.Buffers

	// in and out are this end's wire bytes; inC and outC, when set,
	// receive them too (the server-wide totals; nil on a client).
	in, out   int64
	inC, outC *obs.Counter

	// led, when set, is charged for every metered byte; charged is how
	// much of in+out it has been charged so far.
	led     *ledger.Ledger
	charged int64

	// resend is the client's view of which bytes are a retry's re-sends
	// (nil on a server, which cannot know).
	resend *resendMarks
}

func newWireConn(conn net.Conn, encCap, readCap int) wireConn {
	return wireConn{conn: conn, enc: wire.GetFrame(encCap), readBuf: wire.GetFrame(readCap)}
}

// Read meters what the connection delivers; recv reads through it, so a
// partial frame before an error is counted too.
func (w *wireConn) Read(p []byte) (int, error) {
	n, err := w.conn.Read(p)
	w.in += int64(n)
	w.inC.Add(int64(n))
	return n, err
}

func (w *wireConn) wrote(n int64) {
	w.out += n
	w.outC.Add(n)
}

// charge attributes the first n bytes of the segment layout.
func (w *wireConn) charge(segs []causeSeg, n int64) {
	w.charged += chargeSegs(w.led, segs, n)
	w.segs = segs[:0]
}

// send encodes and writes one message, charging the bytes actually
// written by message semantics; on a retry attempt a client's re-sent
// message is a retransmit wholesale.
func (w *wireConn) send(m protocol.Message) error {
	enc := protocol.AppendEncode(w.enc[:0], m)
	w.enc = enc[:0]
	n, err := w.conn.Write(enc)
	w.wrote(int64(n))
	if w.led != nil {
		segs := messageSegments(w.segs[:0], m, int64(len(enc)))
		if w.resend != nil && w.resend.attempt > 1 {
			segs = retagRetransmit(segs)
		}
		w.charge(segs, int64(n))
	}
	if err != nil {
		return fmt.Errorf("syncnet: sending %v: %w", m.Type(), err)
	}
	return nil
}

// sendPayload streams the payload — parts, end to end — from offset
// from on, as Data pieces of at most DataPieceSize. Each piece is one
// vectored send — the frame header from the pooled scratch, then the
// parts' slices it covers, directly (a stored content's leaves: four to
// a piece), a single writev on connections that support it — so
// content is never copied into a frame buffer. A payload that is empty
// from the start still goes out as one empty piece. A client's pieces
// split against its sent high-water mark: re-sent ranges are
// retransmits.
func (w *wireConn) sendPayload(fileID uint64, parts [][]byte, from int64) error {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	cur, skip := []byte(nil), int(from) // cur: the unsent rest of the part in hand
	for skip >= len(cur) && len(parts) > 0 {
		skip -= len(cur)
		cur, parts = parts[0], parts[1:]
	}
	cur = cur[min(skip, len(cur)):]
	for off := int(from); off < size || off == 0; off += DataPieceSize {
		n := min(DataPieceSize, size-off)
		hdr := protocol.AppendDataHeader(w.enc[:0], fileID, int64(off), n)
		w.enc = hdr[:0]
		bufs := append(w.vec[:0], hdr)
		for got := 0; got < n; {
			for len(cur) == 0 {
				cur, parts = parts[0], parts[1:]
			}
			k := min(n-got, len(cur))
			bufs, cur, got = append(bufs, cur[:k]), cur[k:], got+k
		}
		w.vec = bufs[:0] // WriteTo consumes bufs, not the array under it
		written, err := bufs.WriteTo(w.conn)
		w.wrote(written)
		if w.led != nil {
			segs := appendDataSegments(w.segs[:0], int64(len(hdr)+n), int64(n))
			if w.resend != nil {
				segs = splitDataByHighWater(segs, int64(off), int64(n), &w.resend.txHigh)
			}
			w.charge(segs, written)
		}
		if err != nil {
			return fmt.Errorf("syncnet: sending data: %w", err)
		}
	}
	return nil
}

// recv reads one message and charges its bytes. A client's download
// pieces split against its received high-water mark, so content
// re-fetched after a reconnect shows up as retransmit.
func (w *wireConn) recv() (protocol.Message, error) {
	in0 := w.in
	m, buf, err := protocol.ReadMessageBuf(w, w.readBuf)
	w.readBuf = buf
	if err != nil {
		return nil, err
	}
	if w.led != nil {
		n := w.in - in0
		segs := messageSegments(w.segs[:0], m, n)
		if d, ok := m.(*protocol.Data); ok && w.resend != nil {
			segs = splitDataByHighWater(segs, d.Offset, int64(len(d.Payload)), &w.resend.rxHigh)
		}
		w.charge(segs, n)
	}
	return m, nil
}

// settle closes the connection and settles its books: the residual —
// metered bytes that never formed a whole message, such as partial
// frames around a connection cut — is swept into framing, after which
// the ledger total equals in+out exactly. The pooled buffers go back.
func (w *wireConn) settle() error {
	err := w.conn.Close()
	if resid := w.in + w.out - w.charged; w.led != nil && resid > 0 {
		w.led.Add(ledger.Framing, resid)
		w.charged += resid
	}
	wire.PutFrame(w.enc)
	wire.PutFrame(w.readBuf)
	w.enc, w.readBuf = nil, nil
	return err
}
