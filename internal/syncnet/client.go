package syncnet

import (
	"cmp"
	"fmt"
	"net"
	"sync"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/delta"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
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
	wc          wireConn // across reconnects: one meter, one ledger
	user        string
	device      string
	compression comp.Level
	blockSize   int
	retry       RetryPolicy
	dialer      func() (net.Conn, error)
	jitterRNG   jitterXorshift
	// resend marks what the current operation has already put on (or
	// pulled off) the wire, so the connection charges only genuine
	// re-sends as retransmits.
	resend resendMarks

	ids   map[string]uint64
	known map[string]bool // names known to exist server-side
	sigs  sigCache        // signatures the uploads and delta exchanges ended on
	// mirror is the account listing as of the last List, and the
	// change-feed cursor the next List sends.
	mirror listMirror

	// tracer, when set via WithTracer, records one span per operation
	// with children per attempt and per protocol stage, and prefixes
	// each attempt with a TraceCtx frame. Nil keeps the untraced fast
	// path.
	tracer *obs.Tracer
	op     *obs.Span // span of the operation currently in flight
	att    *obs.Span // span of the current retry attempt, if any

	// replyWaitUS, set via WithClientMetrics, times every blocking wait
	// for a server reply — the wire round-trip as the client sees it.
	// signWaitUS times what a full upload's signing added after the Ack,
	// compressUS every payload the client compressed, deltaComputeUS
	// every delta.Compute of a delta sync, contentHashUS every file
	// identity an upload computed.
	replyWaitUS, signWaitUS, compressUS, deltaComputeUS, contentHashUS *obs.Histogram
}

// WireTotals reports the bytes this client has read from and written to
// its connection(s), across reconnects. Every client meters them,
// instrumented or not.
func (c *Client) WireTotals() (in, out int64) { return c.wc.in, c.wc.out }

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
	c.op.Set("bytes_in", c.wc.in-in0)
	c.op.Set("bytes_out", c.wc.out-out0)
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

// WithBlockSize fixes the client's delta-sync granularity (0 = per
// file). It sets the block size a SigRequest names (0 leaves it to the
// server, which refuses a size outside [delta.MinBlockSize,
// delta.MaxBlockSize]), the block a full upload signs its held
// signature at (0: heldBlockSize), and the inline threshold
// (inlineLimit).
func WithBlockSize(bs int) ClientOption {
	return func(c *Client) { c.blockSize = bs }
}

// WithTracer records client-side spans (one per operation, with
// children per attempt and protocol stage) on tr, and propagates them:
// every operation attempt is prefixed with a TraceCtx frame naming the
// tracer's identity and the attempt span, so the server parents its
// spans under this client's operation (joined by obs.Merge). A nil tr
// records none and puts no extra byte on the wire.
func WithTracer(tr *obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// WithLedger attributes every wire byte the client sends or receives to
// a traffic cause on l. The sum over all causes equals WireTotals'
// in+out exactly once the client is closed; a nil l charges nothing.
func WithLedger(l *ledger.Ledger) ClientOption {
	return func(c *Client) { c.wc.led = l }
}

// WithClientMetrics registers the client's phase instruments on reg:
// syncnet_client_reply_wait_us, the microseconds each blocking wait
// for a server reply took (the wire round-trip plus server queueing
// and service, as the client experiences it), and
// syncnet_client_sign_wait_us, the microseconds a full upload blocked
// on its own signature after the Ack (the part of signing the upload
// did not hide), syncnet_client_compress_us, the microseconds each
// payload took to compress, syncnet_client_delta_compute_us, the
// microseconds each delta sync spent in delta.Compute, and
// syncnet_client_content_hash_us, the microseconds each upload spent
// in protocol.Sum. A nil reg leaves the client unmetered.
func WithClientMetrics(reg *obs.Registry) ClientOption {
	return func(c *Client) {
		c.replyWaitUS = reg.Histogram("syncnet_client_reply_wait_us",
			"Microseconds a client blocked waiting for a server reply (round-trip wait).")
		c.signWaitUS = reg.Histogram("syncnet_client_sign_wait_us",
			"Microseconds a full upload blocked after its Ack on signing what it uploaded.")
		c.compressUS = reg.Histogram("syncnet_client_compress_us",
			"Microseconds spent compressing each payload the client sent compressed.")
		c.deltaComputeUS = reg.Histogram("syncnet_client_delta_compute_us",
			"Microseconds each delta sync spent computing its delta against the basis signature.")
		c.contentHashUS = reg.Histogram("syncnet_client_content_hash_us",
			"Microseconds spent computing each uploaded file's identity hash.")
	}
}

// sum is protocol.Sum, timed into syncnet_client_content_hash_us when
// the client is metered.
func (c *Client) sum(data []byte) protocol.Fingerprint {
	if c.contentHashUS == nil {
		return protocol.Sum(data)
	}
	t0 := time.Now()
	h := protocol.Sum(data)
	c.contentHashUS.Observe(time.Since(t0).Microseconds())
	return h
}

// compress compresses a payload at the client's level, timed into
// syncnet_client_compress_us when the client is metered and the level
// compresses at all.
func (c *Client) compress(data []byte) []byte {
	if c.compressUS == nil || c.compression == comp.None {
		return comp.Compress(data, c.compression)
	}
	t0 := time.Now()
	payload := comp.Compress(data, c.compression)
	c.compressUS.Observe(time.Since(t0).Microseconds())
	return payload
}

// computeDelta is delta.Compute, timed into
// syncnet_client_delta_compute_us when the client is metered.
func (c *Client) computeDelta(sig delta.Signature, data []byte) delta.Delta {
	if c.deltaComputeUS == nil {
		return delta.Compute(sig, data)
	}
	t0 := time.Now()
	d := delta.Compute(sig, data)
	c.deltaComputeUS.Observe(time.Since(t0).Microseconds())
	return d
}

// sendTraceCtx prefixes the current attempt with the client's trace
// context so the server can parent its spans under it. No-op without a
// tracer.
func (c *Client) sendTraceCtx() error {
	if c.tracer == nil {
		return nil
	}
	return c.wc.send(&protocol.TraceCtx{
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
		wc:     newWireConn(conn, 256, 1024),
		user:   user,
		device: device,
		ids:    make(map[string]uint64),
		known:  make(map[string]bool),
	}
	c.wc.resend = &c.resend
	for _, opt := range opts {
		opt(c)
	}
	c.jitterRNG = newJitterRNG(c.retry.Seed)
	if err := c.hello(); err != nil {
		return nil, err
	}
	return c, nil
}

// hello opens the session on the current connection.
func (c *Client) hello() error {
	return c.wc.send(&protocol.Hello{User: c.user, Device: c.device, Version: "cloudsync/1"})
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
func (c *Client) Close() error { return c.wc.settle() }

// read waits for one reply, timing the wait, and turns an Error reply
// into an error.
func (c *Client) read() (protocol.Message, error) {
	var t0 time.Time
	if c.replyWaitUS != nil {
		t0 = time.Now()
	}
	m, err := c.wc.recv()
	if c.replyWaitUS != nil {
		c.replyWaitUS.Observe(time.Since(t0).Microseconds())
	}
	if err != nil {
		return nil, fmt.Errorf("syncnet: reading reply: %w", err)
	}
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
//     against the signature this client's last full upload or delta
//     exchange of it left, when it remembers one, as a delta conditional
//     on that version — else, or when the server refuses the guess as
//     stale, against a signature it requests first;
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
	in0, out0 := c.WireTotals()
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
// the block size this client asks for, else delta.DefaultBlockSize —
// not the server's per-file size, which for such files is smaller.
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
		Name: name, Size: int64(len(data)), FileHash: c.sum(data),
		Payload: c.compress(data),
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

// fullUpload sends the whole file — or, on a dedup hit, only its
// identity; after a reconnect, only the tail the server lacks. Either
// way the client holds the bytes the server commits, so it signs them
// (at heldBlockSize: this signature never crosses the wire) while the
// exchange runs, and an acknowledged upload leaves that
// signature remembered at the acknowledged version: the first modify
// is then one conditional delta. A failed one leaves nothing.
func (c *Client) fullUpload(name string, data []byte, attempt int) (UploadStats, error) {
	sp := c.parent().Child("client.full_upload")
	defer sp.End()
	c.sigs.drop(name) // whole new content: nothing to carry over
	bs := cmp.Or(c.blockSize, heldBlockSize(int64(len(data))))
	sp.Set("block_size", bs)
	var sig delta.Signature
	var signing sync.WaitGroup
	signing.Add(1)
	go func() {
		defer signing.Done()
		sig = delta.Sign(data, bs)
	}()
	defer signing.Wait() // no signer outlives the upload, failed or not
	var stats UploadStats
	defer func() {
		sp.Set("payload_bytes", stats.PayloadBytes)
		if stats.DedupHit {
			sp.Set("dedup_hit", true)
		}
	}()
	hash := c.sum(data)

	// After a reconnect, probe for a stashed partial upload before
	// re-announcing the file: a positive answer skips the index exchange
	// and the payload prefix the server already buffered. The offset it
	// names is one into the compressed payload, so a retry compresses
	// first; a first attempt compresses only past a dedup miss.
	var payload []byte
	var fileID uint64
	var resumeAt int64
	if attempt > 1 {
		payload = c.compress(data)
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
		if err := c.wc.send(&protocol.IndexUpdate{
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
		if payload == nil {
			payload = c.compress(data)
		}
		stats.PayloadBytes = len(payload) - int(resumeAt)
		if err := c.wc.sendPayload(fileID, [][]byte{payload}, resumeAt); err != nil {
			return stats, err
		}
	}
	if err := c.wc.send(&protocol.Commit{FileID: fileID}); err != nil {
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
	var t0 time.Time
	if c.signWaitUS != nil {
		t0 = time.Now()
	}
	signing.Wait()
	if c.signWaitUS != nil {
		c.signWaitUS.Observe(time.Since(t0).Microseconds())
	}
	sp.Set("signed_blocks", len(sig.Blocks))
	c.sigs.put(name, ack.Version, sig)
	return stats, nil
}

// resumeQuery asks the server how much of an interrupted upload it
// already holds.
func (c *Client) resumeQuery(name string, size int64, hash protocol.Fingerprint) (*protocol.ResumeInfo, error) {
	sp := c.parent().Child("client.resume_query", obs.String("name", name))
	defer sp.End()
	if err := c.wc.send(&protocol.ResumeQuery{Name: name, Size: size, FileHash: hash}); err != nil {
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
// against the remembered signature: one round trip. Without, the
// signature is requested first. Either way the delta is sent
// conditional on the version its signature describes, and an
// acknowledged exchange leaves the signature of data — carried
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
		if err := c.wc.send(&protocol.SigRequest{Name: name, BlockSize: uint32(c.blockSize)}); err != nil {
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
		base = sigMsg.Version
	}
	sp.Set("block_size", sig.BlockSize)
	d := c.computeDelta(sig, data)
	payload := d.Encode()
	if err := c.wc.send(&protocol.DeltaMsg{Name: name, Payload: payload, BaseVersion: base}); err != nil {
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
	in0, out0 := c.WireTotals()
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
	if err := c.wc.send(&protocol.Get{Name: name}); err != nil {
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
	level := comp.Level(info.Compression)
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
			if v.Offset+int64(len(v.Payload)) > comp.CompressBound(info.Size, level) {
				return nil, fmt.Errorf("syncnet: download of %q past what %d bytes compress to", name, info.Size)
			}
			payload = append(payload, v.Payload...)
		case *protocol.Ack:
			raw, err := comp.DecompressSize(payload, level, info.Size)
			if err != nil {
				return nil, fmt.Errorf("syncnet: download of %q: %w", name, err)
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
	in0, out0 := c.WireTotals()
	err := c.withRetry(func(attempt int) error {
		if err := c.wc.send(&protocol.Delete{FileID: id}); err != nil {
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
