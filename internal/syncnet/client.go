package syncnet

import (
	"crypto/md5"
	"fmt"
	"hash"
	"io"
	"net"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/delta"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
	"cloudsync/internal/wire"
)

// UploadStats describes what one Upload cost.
type UploadStats struct {
	// DedupHit: the server already had the content. On the probing path
	// (files larger than one delta block) nothing was sent and
	// PayloadBytes is 0; a file small enough to ride inline was sent
	// without asking first, and PayloadBytes reports the bytes the server
	// discarded.
	DedupHit bool
	// DeltaSync: the file was updated incrementally from a signature.
	DeltaSync bool
	// PayloadBytes is the content payload put on the wire (after
	// compression / delta reduction) by the final, successful attempt.
	PayloadBytes int
	// Version is the committed server-side version.
	Version uint64
	// Attempts is how many tries the upload took (1 = no faults).
	Attempts int
	// ResumedFrom is the payload offset the successful attempt continued
	// from (0 when the upload never resumed).
	ResumedFrom int64
}

// Client is a sync client for one user over one connection. It is not
// safe for concurrent use; open one client per goroutine.
type Client struct {
	conn        net.Conn
	user        string
	device      string
	compression comp.Level
	blockSize   int
	retry       RetryPolicy
	dialer      func() (net.Conn, error)
	jitterRNG   jitterXorshift

	ids   map[string]uint64
	known map[string]bool // names known to exist server-side
	sigs  sigCache        // signatures the delta exchanges ended on

	// Pooled live-path scratch: enc frames outgoing messages, readBuf
	// absorbs incoming ones (both from the wire frame pool, returned on
	// Close), segs is the reusable ledger-segment layout, and digest is
	// the MD5 state UploadBundle reuses across a batch's files.
	enc     []byte
	readBuf []byte
	segs    []causeSeg
	digest  hash.Hash

	// tracer, when set via WithTracer, records one span per operation
	// with children per attempt and per protocol stage, and meters the
	// client-side wire bytes. Nil keeps the untraced fast path.
	tracer          *obs.Tracer
	op              *obs.Span // span of the operation currently in flight
	att             *obs.Span // span of the current retry attempt, if any
	wireIn, wireOut int64

	// propagate, set via WithTraceContext, opts the session into
	// cross-process trace propagation: Hello advertises CapTrace and
	// each attempt is prefixed with a TraceCtx frame. Inert without a
	// tracer.
	propagate bool
	// replyWaitUS, set via WithClientMetrics, times every blocking wait
	// for a server reply — the wire round-trip as the client sees it.
	replyWaitUS *obs.Histogram

	// ledger, when set via WithLedger, attributes every metered wire
	// byte (both directions) to a cause. charged tracks how much this
	// client has attributed so Close can sweep the residual — partial
	// frames around a connection cut — into framing, keeping
	// ledger-total == wireIn+wireOut exact.
	ledger  *ledger.Ledger
	charged int64
	attempt int // current retry attempt (1-based; 0 during Hello)
	// txHigh / rxHigh are the highest payload offsets sent and received
	// this operation: an operation streams Data pieces for one file only,
	// so one mark per direction tells a re-sent range from a fresh one.
	// They follow the operation, not the wire fileID: a retry that
	// restarts after the server lost its stash gets a fresh fileID, yet
	// its re-sent ranges are still retransmits of the same file.
	txHigh, rxHigh int64
}

// WireTotals reports the bytes this client has read from and written to
// its connection(s), across reconnects. Metering requires WithTracer or
// WithLedger; without either both totals stay zero.
func (c *Client) WireTotals() (in, out int64) { return c.wireIn, c.wireOut }

// meterConn counts a traced client's wire bytes in both directions.
type meterConn struct {
	net.Conn
	in, out *int64
}

func (mc *meterConn) Read(p []byte) (int, error) {
	n, err := mc.Conn.Read(p)
	*mc.in += int64(n)
	return n, err
}

func (mc *meterConn) Write(p []byte) (int, error) {
	n, err := mc.Conn.Write(p)
	*mc.out += int64(n)
	return n, err
}

// parent is the span new protocol-stage spans should hang off: the
// current attempt when retrying, else the operation itself.
func (c *Client) parent() *obs.Span {
	if c.att != nil {
		return c.att
	}
	return c.op
}

// endOp closes the in-flight operation span, tagging it with the
// operation's wire-byte deltas and any error.
func (c *Client) endOp(in0, out0 int64, err error) {
	if c.op == nil {
		return
	}
	c.op.Set("bytes_in", c.wireIn-in0)
	c.op.Set("bytes_out", c.wireOut-out0)
	if err != nil {
		c.op.Set("error", err.Error())
	}
	c.op.End()
	c.op = nil
}

// ClientOption customizes a client.
type ClientOption func(*Client)

// WithCompression sets the content compression level (must match the
// server's configuration).
func WithCompression(l comp.Level) ClientOption {
	return func(c *Client) { c.compression = l }
}

// WithBlockSize sets the delta-sync granularity requested from the
// server (0 = server default).
func WithBlockSize(bs int) ClientOption {
	return func(c *Client) { c.blockSize = bs }
}

// WithTracer records client-side spans (one per operation, with
// children per attempt and protocol stage) on tr and meters wire bytes
// for WireTotals. A nil tr leaves the client completely uninstrumented.
func WithTracer(tr *obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// WithLedger attributes every wire byte the client sends or receives to
// a traffic cause on l (and enables wire metering, like WithTracer).
// The sum over all causes equals WireTotals' in+out exactly once the
// client is closed; a nil l leaves the client uninstrumented.
func WithLedger(l *ledger.Ledger) ClientOption {
	return func(c *Client) { c.ledger = l }
}

// WithTraceContext opts the session into cross-process trace
// propagation: the Hello advertises protocol.CapTrace and every
// operation attempt is prefixed with a TraceCtx frame naming the
// client tracer's identity and the attempt span, so a trace-capable
// server parents its spans under this client's operation (joined by
// obs.Merge). Requires WithTracer — without a tracer the option is
// inert and not a single wire byte changes.
func WithTraceContext() ClientOption {
	return func(c *Client) { c.propagate = true }
}

// WithClientMetrics registers the client's phase instruments on reg:
// syncnet_client_reply_wait_us, the microseconds each blocking wait
// for a server reply took (the wire round-trip plus server queueing
// and service, as the client experiences it). A nil reg leaves the
// client unmetered.
func WithClientMetrics(reg *obs.Registry) ClientOption {
	return func(c *Client) {
		c.replyWaitUS = reg.Histogram("syncnet_client_reply_wait_us",
			"Microseconds a client blocked waiting for a server reply (round-trip wait).")
	}
}

// helloCaps is the capability word the session's Hello advertises.
func (c *Client) helloCaps() uint32 {
	if c.propagate && c.tracer != nil {
		return protocol.CapTrace
	}
	return 0
}

// sendTraceCtx prefixes the current attempt with the client's trace
// context so the server can parent its spans under it. No-op unless
// the session propagates (WithTraceContext plus a tracer).
func (c *Client) sendTraceCtx() error {
	if !c.propagate || c.tracer == nil {
		return nil
	}
	return c.send(&protocol.TraceCtx{
		TraceID: [16]byte(c.tracer.TraceID()),
		SpanID:  c.parent().SpanID(),
	})
}

// NewClient starts a session on an established connection. It sends
// the Hello immediately.
func NewClient(conn net.Conn, user, device string, opts ...ClientOption) (*Client, error) {
	if user == "" {
		return nil, fmt.Errorf("syncnet: empty user")
	}
	c := &Client{
		conn:    conn,
		user:    user,
		device:  device,
		ids:     make(map[string]uint64),
		known:   make(map[string]bool),
		enc:     wire.GetFrame(256),
		readBuf: wire.GetFrame(1024),
	}
	for _, opt := range opts {
		opt(c)
	}
	c.jitterRNG = newJitterRNG(c.retry.Seed)
	if c.tracer != nil || c.ledger != nil {
		c.conn = &meterConn{Conn: conn, in: &c.wireIn, out: &c.wireOut}
	}
	if err := c.send(&protocol.Hello{User: user, Device: device, Version: "cloudsync/1", Caps: c.helloCaps()}); err != nil {
		return nil, err
	}
	return c, nil
}

// Dial connects to a server and starts a session. It installs a
// redialing transport factory, so a retry policy set via WithRetry can
// reconnect after transport failures (WithDialer overrides it).
func Dial(network, addr, user, device string, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("syncnet: dial: %w", err)
	}
	redial := func() (net.Conn, error) { return net.Dial(network, addr) }
	c, err := NewClient(conn, user, device, append([]ClientOption{WithDialer(redial)}, opts...)...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close ends the session. With a ledger attached it also sweeps the
// residual — metered bytes that never formed a complete message, such
// as partial frames around a connection cut — into framing, after
// which the ledger total equals the wire total exactly.
func (c *Client) Close() error {
	err := c.conn.Close()
	if c.ledger != nil {
		if resid := c.wireIn + c.wireOut - c.charged; resid > 0 {
			c.ledger.Add(ledger.Framing, resid)
			c.charged += resid
		}
	}
	wire.PutFrame(c.enc)
	wire.PutFrame(c.readBuf)
	c.enc, c.readBuf = nil, nil
	return err
}

// send encodes and writes one message on the session connection,
// charging the bytes actually written to the ledger.
func (c *Client) send(m protocol.Message) error { return c.sendOn(c.conn, m) }

func (c *Client) sendOn(conn net.Conn, m protocol.Message) error {
	enc := protocol.AppendEncode(c.enc[:0], m)
	c.enc = enc[:0]
	n, err := conn.Write(enc)
	c.chargeWrite(m, int64(len(enc)), int64(n))
	if err != nil {
		return fmt.Errorf("syncnet: sending %v: %w", m.Type(), err)
	}
	return nil
}

// sendData writes one Data piece as a vectored send: the ~25-byte
// frame header and body prefix come from the pooled scratch, the
// payload slice goes to the connection directly — content is never
// copied into a frame buffer, and on connections that support
// net.Buffers both land in a single writev.
func (c *Client) sendData(fileID uint64, offset int64, payload []byte) error {
	hdr := protocol.AppendDataHeader(c.enc[:0], fileID, offset, len(payload))
	c.enc = hdr[:0]
	n, err := writeVectored(c.conn, hdr, payload)
	c.chargeDataWrite(offset, int64(len(payload)), int64(len(hdr)+len(payload)), n)
	if err != nil {
		return fmt.Errorf("syncnet: sending data: %w", err)
	}
	return nil
}

// writeVectored writes hdr then payload through one net.Buffers send,
// unwrapping the metering layer so the underlying connection can use
// writev while byte counting still happens exactly once.
func writeVectored(w io.Writer, hdr, payload []byte) (int64, error) {
	bufs := net.Buffers{hdr, payload}
	if mc, ok := w.(*meterConn); ok {
		n, err := bufs.WriteTo(mc.Conn)
		*mc.out += n
		return n, err
	}
	return bufs.WriteTo(w)
}

// chargeWrite attributes the n bytes a write put on the wire. Data
// pieces split against the operation's sent high-water mark (re-sent
// ranges are retransmits); any other message re-sent on a retry attempt
// is a retransmit wholesale.
func (c *Client) chargeWrite(m protocol.Message, total, n int64) {
	if c.ledger == nil {
		return
	}
	segs := messageSegments(c.segs[:0], m, total)
	if d, ok := m.(*protocol.Data); ok {
		segs = splitDataByHighWater(segs, d.Offset, int64(len(d.Payload)), &c.txHigh)
	} else if c.attempt > 1 {
		segs = retagRetransmit(segs)
	}
	c.charged += chargeSegs(c.ledger, segs, n)
	c.segs = segs[:0]
}

// chargeDataWrite is chargeWrite for the vectored Data path, which
// never materializes a protocol.Data value.
func (c *Client) chargeDataWrite(offset, payloadLen, total, n int64) {
	if c.ledger == nil {
		return
	}
	segs := appendDataSegments(c.segs[:0], total, payloadLen)
	segs = splitDataByHighWater(segs, offset, payloadLen, &c.txHigh)
	c.charged += chargeSegs(c.ledger, segs, n)
	c.segs = segs[:0]
}

// chargeRead attributes one fully read message's wire bytes. Download
// pieces split against the received high-water mark, so content
// re-fetched after a mid-download reconnect shows up as retransmit.
func (c *Client) chargeRead(m protocol.Message, consumed int64) {
	if c.ledger == nil {
		return
	}
	segs := messageSegments(c.segs[:0], m, consumed)
	if d, ok := m.(*protocol.Data); ok {
		segs = splitDataByHighWater(segs, d.Offset, int64(len(d.Payload)), &c.rxHigh)
	}
	c.charged += chargeSegs(c.ledger, segs, consumed)
	c.segs = segs[:0]
}

func (c *Client) read() (protocol.Message, error) {
	in0 := c.wireIn
	var t0 time.Time
	if c.replyWaitUS != nil {
		t0 = time.Now()
	}
	m, buf, err := protocol.ReadMessageBuf(c.conn, c.readBuf)
	if c.replyWaitUS != nil {
		c.replyWaitUS.Observe(time.Since(t0).Microseconds())
	}
	c.readBuf = buf
	if err != nil {
		return nil, fmt.Errorf("syncnet: reading reply: %w", err)
	}
	c.chargeRead(m, c.wireIn-in0)
	if e, ok := m.(*protocol.Error); ok {
		return nil, e
	}
	return m, nil
}

// Upload synchronizes data under name, in one request/reply exchange
// unless a probe can save bytes:
//
//   - a file no larger than one delta block rides inline in a one-entry
//     Bundle, new name or known — below a block neither an rsync
//     exchange nor a dedup probe can save more than the probe costs;
//   - a file the server already holds is synced incrementally (rsync):
//     against the signature this client's last delta exchange on it
//     ended on, when it remembers one, as a delta conditional on that
//     version — else, or when the server refuses the guess as stale,
//     against a signature it requests first;
//   - anything else is a full upload with dedup probing and compression.
//
// Under a retry policy, transport failures reconnect and retry: the
// inline path re-sends (an entry the broken attempt committed collapses
// into a dedup hit), the delta path forgets what it remembered and
// re-requests the signature (idempotent — the signature reflects
// whatever the server holds now), and the full path asks the server
// how much of the interrupted payload it already buffered, re-sending
// only the unacknowledged tail.
func (c *Client) Upload(name string, data []byte) (UploadStats, error) {
	c.op = c.tracer.Start("client.upload",
		obs.String("name", name), obs.Int("size", int64(len(data))))
	in0, out0 := c.wireIn, c.wireOut
	var stats UploadStats
	err := c.withRetry(func(attempt int) error {
		var err error
		stats, err = c.uploadOnce(name, data, attempt)
		return err
	})
	c.op.Set("attempts", stats.Attempts)
	c.op.Set("payload_bytes", stats.PayloadBytes)
	if stats.DedupHit {
		c.op.Set("dedup_hit", true)
	}
	if stats.DeltaSync {
		c.op.Set("delta_sync", true)
	}
	if stats.ResumedFrom > 0 {
		c.op.Set("resumed_from", stats.ResumedFrom)
	}
	c.endOp(in0, out0, err)
	return stats, err
}

func (c *Client) uploadOnce(name string, data []byte, attempt int) (UploadStats, error) {
	if len(data) <= c.inlineLimit() {
		return c.inlineUpload(name, data, attempt)
	}
	if c.known[name] {
		stats, err := c.deltaUpload(name, data)
		if err == nil {
			stats.Attempts = attempt
			return stats, nil
		}
		var perr *protocol.Error
		if isProtoErr(err, &perr) && perr.Code == protocol.ErrNotFound {
			// Deleted server-side meanwhile: fall through to full upload.
			delete(c.known, name)
		} else {
			return stats, err
		}
	}
	stats, err := c.fullUpload(name, data, attempt)
	stats.Attempts = attempt
	return stats, err
}

func isProtoErr(err error, out **protocol.Error) bool {
	e, ok := err.(*protocol.Error)
	if ok {
		*out = e
	}
	return ok
}

// inlineLimit is the largest file Upload sends without probing first:
// one block of the session's delta granularity.
func (c *Client) inlineLimit() int {
	if c.blockSize > 0 {
		return c.blockSize
	}
	return delta.DefaultBlockSize
}

// inlineUpload sends a small file as a one-entry Bundle: identity and
// content in one frame, answered by one BundleReply.
func (c *Client) inlineUpload(name string, data []byte, attempt int) (UploadStats, error) {
	sp := c.parent().Child("client.inline_upload")
	defer sp.End()
	entries := []protocol.BundleEntry{{
		Name: name, Size: int64(len(data)), FileHash: md5.Sum(data),
		Payload: comp.Compress(data, c.compression),
	}}
	var stats [1]UploadStats
	err := c.bundleExchange(entries, stats[:], attempt)
	stats[0].Attempts = attempt
	sp.Set("payload_bytes", stats[0].PayloadBytes)
	if stats[0].DedupHit {
		sp.Set("dedup_hit", true)
	}
	return stats[0], err
}

func (c *Client) fullUpload(name string, data []byte, attempt int) (UploadStats, error) {
	sp := c.parent().Child("client.full_upload")
	defer sp.End()
	c.sigs.drop(name) // whole new content: nothing to carry over
	var stats UploadStats
	defer func() {
		sp.Set("payload_bytes", stats.PayloadBytes)
		if stats.DedupHit {
			sp.Set("dedup_hit", true)
		}
	}()
	hash := md5.Sum(data)
	payload := comp.Compress(data, c.compression)

	// After a reconnect, probe for a stashed partial upload before
	// re-announcing the file: a positive answer skips the index exchange
	// and the payload prefix the server already buffered.
	var fileID uint64
	var resumeAt int64
	if attempt > 1 {
		info, err := c.resumeQuery(name, int64(len(data)), hash)
		if err != nil {
			return stats, err
		}
		if info.Offset > 0 && info.Offset <= int64(len(payload)) {
			fileID = info.FileID
			resumeAt = info.Offset
			stats.ResumedFrom = resumeAt
		}
	}

	if resumeAt == 0 {
		if err := c.send(&protocol.IndexUpdate{
			FileID: c.ids[name], Name: name, Size: int64(len(data)), FileHash: hash,
		}); err != nil {
			return stats, err
		}
		m, err := c.read()
		if err != nil {
			return stats, err
		}
		reply, ok := m.(*protocol.IndexReply)
		if !ok {
			return stats, fmt.Errorf("syncnet: expected index reply, got %v", m.Type())
		}
		fileID = reply.FileID
		stats.DedupHit = reply.DedupHit
	}
	c.ids[name] = fileID

	if !stats.DedupHit {
		stats.PayloadBytes = len(payload) - int(resumeAt)
		for off := int(resumeAt); off < len(payload); off += DataPieceSize {
			end := off + DataPieceSize
			if end > len(payload) {
				end = len(payload)
			}
			if err := c.sendData(fileID, int64(off), payload[off:end]); err != nil {
				return stats, err
			}
		}
	}
	if err := c.send(&protocol.Commit{FileID: fileID}); err != nil {
		return stats, err
	}
	ack, err := c.readAck()
	if err != nil {
		return stats, err
	}
	stats.Version = ack.Version
	// The identity the file was committed under: another device that
	// created the name since the IndexReply keeps its id.
	c.ids[name] = ack.FileID
	c.known[name] = true
	return stats, nil
}

// resumeQuery asks the server how much of an interrupted upload it
// already holds.
func (c *Client) resumeQuery(name string, size int64, hash protocol.Fingerprint) (*protocol.ResumeInfo, error) {
	sp := c.parent().Child("client.resume_query", obs.String("name", name))
	defer sp.End()
	if err := c.send(&protocol.ResumeQuery{Name: name, Size: size, FileHash: hash}); err != nil {
		return nil, err
	}
	m, err := c.read()
	if err != nil {
		return nil, err
	}
	info, ok := m.(*protocol.ResumeInfo)
	if !ok {
		return nil, fmt.Errorf("syncnet: expected resume info, got %v", m.Type())
	}
	sp.Set("offset", info.Offset)
	return info, nil
}

// maxDeltaConflicts bounds how often one deltaUpload starts over after
// the server refused its delta as built on a superseded version. Each
// refusal means another device committed in between, so the bound only
// matters against a writer that never rests.
const maxDeltaConflicts = 4

// deltaUpload runs the delta exchange — first on the signature this
// client remembers for the file, if any — starting over from a freshly
// requested signature whenever the server answers ErrConflict: another
// device moved the file, and a delta against the old version must not
// be applied to the new one.
func (c *Client) deltaUpload(name string, data []byte) (UploadStats, error) {
	have := c.sigs.get(name)
	for conflicts := 0; ; conflicts++ {
		stats, err := c.deltaExchange(name, data, have)
		var perr *protocol.Error
		if err == nil || conflicts == maxDeltaConflicts ||
			!isProtoErr(err, &perr) || perr.Code != protocol.ErrConflict {
			return stats, err
		}
		have = nil
	}
}

// deltaExchange is one try at a delta sync. With have, the delta is cut
// against the remembered signature and sent conditional on its version:
// one round trip. Without, the signature is requested first. Either way
// an acknowledged exchange leaves the signature of data — carried
// forward from the basis signature in O(edit), not signed afresh — and
// the acknowledged version remembered for the next modify; a failed one
// leaves nothing, because a lost Ack means the file may have moved.
func (c *Client) deltaExchange(name string, data []byte, have *clientSig) (stats UploadStats, err error) {
	sp := c.parent().Child("client.delta_sync")
	defer sp.End()
	defer func() {
		sp.Set("payload_bytes", stats.PayloadBytes)
		if err != nil {
			c.sigs.drop(name)
		}
	}()
	var sig delta.Signature
	var base uint64
	if have != nil {
		sig, base = have.sig, have.version
		sp.Set("base_version", base)
	} else {
		if err := c.send(&protocol.SigRequest{Name: name, BlockSize: uint32(c.blockSize)}); err != nil {
			return stats, err
		}
		m, err := c.read()
		if err != nil {
			return stats, err
		}
		sigMsg, ok := m.(*protocol.SignatureMsg)
		if !ok {
			return stats, fmt.Errorf("syncnet: expected signature, got %v", m.Type())
		}
		sp.Set("sig_bytes", len(sigMsg.Payload))
		if sig, err = delta.DecodeSignature(sigMsg.Payload); err != nil {
			return stats, err
		}
	}
	d := delta.Compute(sig, data)
	payload := d.Encode()
	if err := c.send(&protocol.DeltaMsg{Name: name, Payload: payload, BaseVersion: base}); err != nil {
		return stats, err
	}
	// Hashing the edited blocks overlaps the server applying the delta
	// (and, on a real link, the round trip): the result is only kept if
	// the Ack arrives.
	next, _ := delta.Resign(sig, d, data)
	ack, err := c.readAck()
	if err != nil {
		return stats, err
	}
	c.sigs.put(name, ack.Version, next)
	stats.DeltaSync = true
	stats.PayloadBytes = len(payload)
	stats.Version = ack.Version
	return stats, nil
}

func (c *Client) readAck() (*protocol.Ack, error) {
	m, err := c.read()
	if err != nil {
		return nil, err
	}
	ack, ok := m.(*protocol.Ack)
	if !ok {
		return nil, fmt.Errorf("syncnet: expected ack, got %v", m.Type())
	}
	if !ack.OK {
		return nil, fmt.Errorf("syncnet: server rejected the operation")
	}
	return ack, nil
}

// Download fetches a file's content. Under a retry policy, a transport
// failure mid-transfer reconnects and re-requests the file from the
// start.
func (c *Client) Download(name string) ([]byte, error) {
	c.op = c.tracer.Start("client.download", obs.String("name", name))
	in0, out0 := c.wireIn, c.wireOut
	var data []byte
	err := c.withRetry(func(int) error {
		var err error
		data, err = c.downloadOnce(name)
		return err
	})
	c.op.Set("size", len(data))
	c.endOp(in0, out0, err)
	return data, err
}

func (c *Client) downloadOnce(name string) ([]byte, error) {
	if err := c.send(&protocol.Get{Name: name}); err != nil {
		return nil, err
	}
	m, err := c.read()
	if err != nil {
		return nil, err
	}
	info, ok := m.(*protocol.FileInfo)
	if !ok {
		return nil, fmt.Errorf("syncnet: expected file info, got %v", m.Type())
	}
	var payload []byte
	for {
		m, err := c.read()
		if err != nil {
			return nil, err
		}
		switch v := m.(type) {
		case *protocol.Data:
			if v.Offset != int64(len(payload)) {
				return nil, fmt.Errorf("syncnet: out-of-order download piece at %d", v.Offset)
			}
			payload = append(payload, v.Payload...)
		case *protocol.Ack:
			raw, err := comp.Decompress(payload, comp.Level(info.Compression))
			if err != nil {
				return nil, err
			}
			if int64(len(raw)) != info.Size {
				return nil, fmt.Errorf("syncnet: downloaded %d bytes, expected %d", len(raw), info.Size)
			}
			c.ids[name] = info.FileID
			c.known[name] = true
			return raw, nil
		default:
			return nil, fmt.Errorf("syncnet: unexpected %v during download", m.Type())
		}
	}
}

// Delete removes a file (server-side fake deletion). Under a retry
// policy, a not-found answer on a retry attempt counts as success: the
// previous attempt's deletion may have been applied before its ack was
// lost, and deletion is the state the caller asked for.
func (c *Client) Delete(name string) error {
	id, ok := c.ids[name]
	if !ok {
		return fmt.Errorf("syncnet: %q was never synced by this client", name)
	}
	c.sigs.drop(name)
	c.op = c.tracer.Start("client.delete", obs.String("name", name))
	in0, out0 := c.wireIn, c.wireOut
	err := c.withRetry(func(attempt int) error {
		if err := c.send(&protocol.Delete{FileID: id}); err != nil {
			return err
		}
		_, err := c.readAck()
		if err != nil && attempt > 1 {
			var perr *protocol.Error
			if isProtoErr(err, &perr) && perr.Code == protocol.ErrNotFound {
				return nil
			}
		}
		return err
	})
	c.endOp(in0, out0, err)
	if err != nil {
		return err
	}
	delete(c.known, name)
	return nil
}
