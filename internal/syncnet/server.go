// Package syncnet is a working cloud-storage sync service over real
// network connections: a Server that stores per-user files with
// compression, full-file deduplication, version history and rsync
// signatures, and a Client that uploads, incrementally updates
// (delta sync), downloads, and deletes files — speaking the binary
// protocol of internal/protocol over any net.Conn.
//
// Where internal/client + internal/cloud *simulate* the traffic of the
// commercial services on a virtual clock, this package *is* a small
// sync service: the mechanisms the paper recommends to providers
// (compression, full-file dedup, incremental sync) implemented
// end-to-end and exercised over TCP in the integration tests and the
// syncd/synccli commands.
package syncnet

import (
	"crypto/md5"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/dedup"
	"cloudsync/internal/delta"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
	"cloudsync/internal/store/wal"
	"cloudsync/internal/wire"
)

// DataPieceSize is the Data-message payload granularity for content
// transfer.
const DataPieceSize = 64 << 10

// maxInflight is the per-connection read-ahead: how many fully read
// requests a connection's reader keeps queued for in-order dispatch
// while earlier ones are still being handled. It bounds the memory one
// connection can pin ahead of dispatch.
const maxInflight = 32

// drainWriteTimeout bounds how long a draining session may spend
// flushing replies to a peer that has stopped reading after Close
// half-closed its connection.
const drainWriteTimeout = 2 * time.Second

// maxPendingUploads caps the partial-upload buffers the server keeps
// for resumption; beyond it the oldest stash is evicted (the client
// then simply restarts that upload from scratch).
const maxPendingUploads = 64

// ErrServerClosed is returned by Serve and HandleConn after Close.
var ErrServerClosed = errors.New("syncnet: server closed")

// ServerConfig selects the server's design choices.
type ServerConfig struct {
	// Compression is applied to content on the wire and at rest
	// (comp.None disables it).
	Compression comp.Level
	// BlockSize is the rsync signature granularity for incremental
	// updates (0 = delta.DefaultBlockSize).
	BlockSize int
	// CrossUserDedup shares the full-file dedup index across accounts.
	CrossUserDedup bool
	// Logf, when set, receives one line per handled request (useful in
	// syncd; tests leave it nil).
	Logf func(format string, args ...any)
	// Metrics, when set, receives the server's live metric set (the
	// syncd_* catalogue in docs/OBSERVABILITY.md). Nil keeps the
	// uninstrumented zero-overhead behaviour.
	Metrics *obs.Registry
	// Tracer, when set, records one span per client session with one
	// child span per handled request. When a session propagates a trace
	// context (Hello CapTrace + TraceCtx frames), request spans are
	// instead parented under the client's remote operation span, so a
	// client and server dump merge into one tree (obs.Merge). Nil
	// disables tracing at no cost.
	Tracer *obs.Tracer
	// Flight, when set, receives one record per handled request (plus
	// session and crash events) in a bounded ring; the crash latch dumps
	// it to StateDir/flight-<ts>.jsonl before CrashedC closes — the
	// black box a post-mortem reads. Nil disables recording at no cost.
	Flight *obs.FlightRecorder
	// Ledger, when set, attributes every wire byte read from or written
	// to client connections to a traffic cause; its total equals
	// BytesReceived+BytesSent exactly once sessions have ended. Nil
	// disables attribution at no cost.
	Ledger *ledger.Ledger
	// StateDir, when set, makes the server durable: every mutation is
	// group-committed to an append-only record log there before it is
	// acknowledged, and OpenServer replays log-over-snapshot to recover
	// after a crash. Empty keeps the historical in-RAM behaviour.
	StateDir string
	// CompactLogBytes is the log size at which the durable state is
	// folded into a snapshot (0 = DefaultCompactLogBytes). Only
	// meaningful with StateDir set.
	CompactLogBytes int64
}

type serverFile struct {
	id      uint64
	name    string
	data    []byte // raw (uncompressed) content
	hash    protocol.Fingerprint
	version uint64
	deleted bool
	history int // versions ever stored (fake deletion keeps content)
	// sig is the signature cache: one lazily filled slot, current only
	// while its version equals the file's. Filled by the first SigRequest,
	// advanced by onDelta, dropped by every other mutation, never
	// persisted. Nil for files that were never delta-synced.
	sig *cachedSig
}

// cachedSig is delta.Sign(data, sig.BlockSize) of the content a file
// held at version. Immutable once published, so sessions may read one
// outside s.mu.
type cachedSig struct {
	version uint64
	sig     delta.Signature
}

// currentSig returns the cached signature when it describes the file's
// present content at block size bs, else nil. Caller holds s.mu.
func (f *serverFile) currentSig(bs int) *cachedSig {
	if c := f.sig; c != nil && c.version == f.version && c.sig.BlockSize == bs {
		return c
	}
	return nil
}

// ServerStats is a snapshot of server activity.
type ServerStats struct {
	Sessions    int64
	Uploads     int64
	DedupSkips  int64
	DeltaSyncs  int64
	Downloads   int64
	Deletes     int64
	Resumes     int64
	BytesStored int64
	// Bundles counts Bundle messages handled; BundledFiles counts the
	// entries they committed.
	Bundles      int64
	BundledFiles int64
	// InlineUploads counts the files committed from one-entry Bundles —
	// what a lockstep Upload sends for a file no larger than one delta
	// block. They are included in Bundles and BundledFiles.
	InlineUploads int64
	// CondDeltas counts the delta syncs (included in DeltaSyncs) whose
	// DeltaMsg named its own base version instead of answering a served
	// signature; CondDeltaConflicts counts the ones refused because the
	// file had moved on.
	CondDeltas         int64
	CondDeltaConflicts int64
	// PendingResumable is the number of stashed partial uploads
	// currently held for resumption.
	PendingResumable int
	// BytesReceived is the total bytes read off all client connections
	// (the server-side view of the wire, for traffic-balance checks).
	BytesReceived int64
	// BytesSent is the total bytes written to all client connections —
	// the other half of the wire view, so ledger attribution can be
	// balanced against the full server-side wire total.
	BytesSent int64
}

// fileKey names a file the way a Delete does: by owner and FileID.
type fileKey struct {
	user string
	id   uint64
}

// pendingKey identifies a stashed partial upload: the same identity a
// reconnecting client presents in its ResumeQuery. Including the
// content hash means a stash from an older edit of the file can never
// be resumed onto.
type pendingKey struct {
	user string
	name string
	size int64
	hash protocol.Fingerprint
}

// Server is the sync service back end. It is safe for concurrent use
// by any number of client connections.
type Server struct {
	cfg ServerConfig

	mu    sync.Mutex
	users map[string]map[string]*serverFile
	// byID indexes each user's files by FileID — what a Delete names.
	// An entry is added wherever a serverFile is created and never
	// removed: deletion is fake and a recreated name keeps its file.
	byID      map[fileKey]*serverFile
	byHash    map[dedup.Fingerprint][]byte // full-file dedup content store
	index     *dedup.Index
	nextID    uint64
	stats     ServerStats
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	// pending holds partial uploads from dropped sessions, FIFO-bounded
	// by pendingOrder.
	pending      map[pendingKey]*pendingUpload
	pendingOrder []pendingKey

	handlers      sync.WaitGroup // serve loops + connection handlers
	bytesReceived atomic.Int64
	bytesSent     atomic.Int64

	// persist is the durable state store (nil for in-RAM servers);
	// appended under s.mu, group-committed by persistSync. crashed trips
	// once the store dies — see persist.go.
	persist  *wal.Store
	crashed  atomic.Bool
	crashedC chan struct{}

	// closers are torn down by Close after the handlers drain —
	// auxiliary lifecycles (like the obs HTTP endpoint) tied to the
	// server's.
	closers []io.Closer

	om serverObs
}

// NewServer constructs a server. It cannot fail for in-RAM
// configurations; with StateDir set it panics on a state-directory
// error — callers wiring persistence should prefer OpenServer.
func NewServer(cfg ServerConfig) *Server {
	s, err := OpenServer(cfg)
	if err != nil {
		panic(fmt.Sprintf("syncnet: NewServer with state dir: %v", err))
	}
	return s
}

// Stats returns a snapshot of server activity.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.BytesReceived = s.bytesReceived.Load()
	st.BytesSent = s.bytesSent.Load()
	st.PendingResumable = len(s.pending)
	return st
}

// AttachCloser registers a closer that Close tears down after every
// serve loop and connection handler has returned. syncd uses it to tie
// the observability HTTP endpoint's shutdown to the server's.
func (s *Server) AttachCloser(c io.Closer) {
	s.mu.Lock()
	s.closers = append(s.closers, c)
	s.mu.Unlock()
}

// Close shuts the server down deterministically: it closes every
// registered listener, half-closes every live connection's read side
// so pipelined requests already queued are still dispatched and their
// replies flushed (bounded by drainWriteTimeout against peers that
// stopped reading), then waits for all serve loops and connection
// handlers to return. Transports without a read-side half-close
// (net.Pipe) are closed outright. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	cs := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range cs {
		if cr, ok := c.(interface{ CloseRead() error }); ok {
			c.SetWriteDeadline(time.Now().Add(drainWriteTimeout))
			cr.CloseRead()
		} else {
			c.Close()
		}
	}
	s.handlers.Wait()
	s.mu.Lock()
	closers := s.closers
	s.closers = nil
	s.mu.Unlock()
	var err error
	for _, c := range closers {
		err = errors.Join(err, c.Close())
	}
	return errors.Join(err, s.closePersist())
}

// Serve accepts connections until the listener fails or the server is
// closed. Each connection is handled on its own goroutine; Close waits
// for all of them.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.handlers.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		s.handlers.Done()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("syncnet: accept: %w", err)
		}
		go func() {
			if err := s.HandleConn(conn); err != nil && !errors.Is(err, ErrServerClosed) && s.cfg.Logf != nil {
				s.cfg.Logf("syncnet: session ended: %v", err)
			}
		}()
	}
}

// register tracks a live connection so Close can tear it down and wait
// for its handler.
func (s *Server) register(conn net.Conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if s.crashed.Load() {
		return ErrServerCrashed
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	s.stats.Sessions++
	s.om.sessions.Inc()
	s.om.activeConns.Add(1)
	return nil
}

func (s *Server) unregister(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.om.activeConns.Add(-1)
	s.handlers.Done()
}

// countingReader tallies the bytes the server reads off a connection:
// into the server-wide atomic, the live metric, and the per-session
// counter that feeds the session-TUE histogram.
type countingReader struct {
	r    io.Reader
	n    *atomic.Int64
	sess *int64
	obsC *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	*cr.sess += int64(n)
	cr.obsC.Add(int64(n))
	return n, err
}

// inboundMsg is one fully read request handed from a connection's
// reader goroutine to its dispatcher, with the wire bytes it consumed.
// A read failure travels the same channel as a final sentinel, so the
// dispatcher sees every successfully read request before the error.
type inboundMsg struct {
	msg      protocol.Message
	consumed int64
	at       time.Time // enqueue instant (zero unless queue wait is metered)
	err      error
}

// HandleConn runs one client session to completion. It returns nil on
// clean disconnect (EOF). A session that ends mid-upload — however it
// ends — stashes the partial buffers so a reconnecting client can
// resume them with a ResumeQuery.
//
// The connection is read ahead: a reader goroutine keeps it drained up
// to maxInflight fully read requests while this goroutine dispatches
// them strictly in arrival order. Replies therefore come back in
// request order, which is what lets a peer that pipelines requests pair
// them up without request IDs.
func (s *Server) HandleConn(conn net.Conn) error {
	if err := s.register(conn); err != nil {
		conn.Close()
		return err
	}
	defer s.unregister(conn)
	defer conn.Close()
	sess := &session{srv: s, conn: conn, uploads: make(map[uint64]*pendingUpload)}
	r := &countingReader{r: conn, n: &s.bytesReceived, sess: &sess.wireIn, obsC: s.om.bytesIn}
	sess.w = &countingWriter{w: conn, n: &sess.wireOut, total: &s.bytesSent, obsC: s.om.bytesOut}
	sess.enc = wire.GetFrame(512)
	defer func() { wire.PutFrame(sess.enc); sess.enc = nil }()
	// Runs last: once every other defer has finished touching the wire,
	// sweep the session's unattributed bytes into the ledger.
	defer sess.settle()

	readBuf := wire.GetFrame(4096)
	first, readBuf, err := protocol.ReadMessageBuf(r, readBuf)
	if err != nil {
		wire.PutFrame(readBuf)
		return fmt.Errorf("syncnet: reading hello: %w", err)
	}
	sess.chargeRead(first, sess.wireIn)
	hello, ok := first.(*protocol.Hello)
	if !ok {
		wire.PutFrame(readBuf)
		sess.sendErr(protocol.ErrBadRequest, "expected hello")
		return fmt.Errorf("syncnet: first message was %v", first.Type())
	}
	sess.user = hello.User
	sess.caps = hello.Caps
	sess.span = s.cfg.Tracer.Start("server.session",
		obs.String("user", hello.User), obs.String("device", hello.Device))
	defer sess.finish()
	defer sess.stash()
	if fl := s.cfg.Flight; fl != nil {
		fl.Record(obs.FlightRecord{At: time.Now().UnixNano(), Name: "server.session.start", User: hello.User})
	}
	s.logf("session start user=%s device=%s", hello.User, hello.Device)

	// The reader owns the read buffer, sess.wireIn, and the channel; it
	// hands each request's consumed byte count through the channel so
	// the dispatcher never touches wireIn until the reader has exited.
	queue := make(chan inboundMsg, maxInflight-1)
	timedQueue := s.om.inboundWaitUS != nil
	go func() {
		defer close(queue)
		defer func() { wire.PutFrame(readBuf) }()
		for {
			in0 := sess.wireIn
			msg, buf, err := protocol.ReadMessageBuf(r, readBuf)
			readBuf = buf
			if err != nil {
				queue <- inboundMsg{err: err}
				return
			}
			in := inboundMsg{msg: msg, consumed: sess.wireIn - in0}
			if timedQueue {
				in.at = time.Now()
			}
			queue <- in
		}
	}()

	var readErr, dispatchErr error
	for in := range queue {
		if in.err != nil {
			readErr = in.err
			break
		}
		if !in.at.IsZero() {
			// Inbound-queue wait: fully read, not yet dispatched — the
			// read-ahead backpressure phase.
			s.om.inboundWaitUS.Observe(time.Since(in.at).Microseconds())
		}
		sess.chargeRead(in.msg, in.consumed)
		if err := sess.dispatch(in.msg); err != nil {
			dispatchErr = err
			break
		}
	}
	// Deterministic drain. Every request the reader accepted was either
	// dispatched above — its reply flushed before the error sentinel
	// could be reached, since the channel preserves arrival order — or
	// is discarded here after a dispatch error. Closing the connection
	// unblocks a reader stuck mid-read; consuming the queue until the
	// reader closes it joins the goroutine, so wireIn is quiescent for
	// the deferred finish/settle and no goroutine outlives the session.
	// Discarded requests are still charged by message semantics; the
	// settle sweep covers any partial trailing frame.
	conn.Close()
	for in := range queue {
		if in.err == nil {
			sess.chargeRead(in.msg, in.consumed)
		}
	}
	if dispatchErr != nil {
		return dispatchErr
	}
	if readErr == io.EOF {
		return nil
	}
	return fmt.Errorf("syncnet: reading message: %w", readErr)
}

// dispatch runs one request through handle, wrapped in its span, its
// duration metric, and its flight record. A TraceCtx frame is absorbed
// here — it is session plumbing, not a request: it updates the trace
// context the following requests' spans adopt, produces no reply, and
// counts in no request metric.
func (ss *session) dispatch(msg protocol.Message) error {
	if tc, ok := msg.(*protocol.TraceCtx); ok {
		if ss.caps&protocol.CapTrace != 0 {
			ss.rTrace = obs.TraceID(tc.TraceID)
			ss.rParent = tc.SpanID
		}
		return nil
	}
	fl := ss.srv.cfg.Flight
	name := "server." + msg.Type().String()
	var t0 time.Time
	if ss.srv.om.requestUS != nil || fl != nil {
		t0 = time.Now()
	}
	sp := ss.requestSpan(name)
	err := ss.handle(msg)
	sp.End()
	if !t0.IsZero() {
		d := time.Since(t0)
		ss.srv.om.requestUS.Observe(d.Microseconds())
		if fl != nil {
			rec := obs.FlightRecord{At: time.Now().UnixNano(), Name: name, User: ss.user, DurUS: d.Microseconds()}
			if err != nil {
				rec.Err = err.Error()
			}
			fl.Record(rec)
		}
	}
	return err
}

// requestSpan opens one request's span: a remote child of the client's
// operation when the session carries a propagated trace context, else
// a local child of the session span.
func (ss *session) requestSpan(name string) *obs.Span {
	if tr := ss.srv.cfg.Tracer; tr != nil && ss.rParent != 0 {
		return tr.StartRemote(name, ss.rTrace, ss.rParent, obs.String("user", ss.user))
	}
	return ss.span.Child(name)
}

// finish closes the session span with the wire totals and feeds the
// per-session TUE histogram (wire bytes in over content bytes
// committed, in thousandths) for sessions that committed content.
func (ss *session) finish() {
	ss.span.Set("bytes_in", ss.wireIn)
	ss.span.Set("bytes_out", ss.wireOut)
	ss.span.Set("content_bytes", ss.contentBytes)
	ss.span.End()
	if ss.contentBytes > 0 {
		ss.srv.om.sessionTUEMilli.Observe(ss.wireIn * 1000 / ss.contentBytes)
	}
	if fl := ss.srv.cfg.Flight; fl != nil {
		fl.Record(obs.FlightRecord{At: time.Now().UnixNano(), Name: "server.session.end", User: ss.user})
	}
}

// applyStart/applyEnd time the in-memory apply phase of a mutation —
// decode, verify, store — excluding the WAL group commit, which is
// metered separately inside internal/store/wal. Zero-cost when the
// apply histogram is unregistered.
func (ss *session) applyStart() time.Time {
	if ss.srv.om.applyUS == nil {
		return time.Time{}
	}
	return time.Now()
}

func (ss *session) applyEnd(t0 time.Time) {
	if !t0.IsZero() {
		ss.srv.om.applyUS.Observe(time.Since(t0).Microseconds())
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) files(user string) map[string]*serverFile {
	m := s.users[user]
	if m == nil {
		m = make(map[string]*serverFile)
		s.users[user] = m
	}
	return m
}

// fileLocked returns the user's file under name, creating it with the
// given id — and indexing it by that id — when absent. Caller holds
// s.mu (or is replaying before the server is shared).
func (s *Server) fileLocked(user, name string, id uint64) *serverFile {
	files := s.files(user)
	f := files[name]
	if f == nil {
		f = &serverFile{id: id, name: name}
		files[name] = f
		s.byID[fileKey{user, id}] = f
	}
	return f
}

// FileState is one file's externally visible server-side state, as
// reported by Snapshot.
type FileState struct {
	ID      uint64
	Data    []byte
	Version uint64
	Deleted bool
	History int
}

// Snapshot copies one user's full file state — the invariant harness's
// view of the server. ID is included so crash-recovery checks can
// assert that a file acknowledged before a crash keeps its identity
// across reopen.
func (s *Server) Snapshot(user string) map[string]FileState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]FileState, len(s.users[user]))
	for name, f := range s.users[user] {
		out[name] = FileState{
			ID:      f.id,
			Data:    append([]byte(nil), f.data...),
			Version: f.version,
			Deleted: f.deleted,
			History: f.history,
		}
	}
	return out
}

// FileContent returns a copy of the stored raw content, for tests and
// the admin tooling.
func (s *Server) FileContent(user, name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files(user)[name]
	if !ok || f.deleted {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// session is the per-connection state: the in-progress uploads (a peer
// may have several index→data→commit exchanges in flight), the
// authenticated user, the pooled encode and ledger scratch, and the
// session's observability context (wire byte counters, content-commit
// total, span).
type session struct {
	srv  *Server
	conn net.Conn
	w    *countingWriter
	user string

	uploads map[uint64]*pendingUpload // keyed by fileID

	// sigServed maps a name to the file version whose signature this
	// session was last sent and has not yet answered with a delta: the
	// only basis a DeltaMsg for that name may be applied to.
	sigServed map[string]uint64

	enc  []byte     // pooled frame scratch, reused across replies
	segs []causeSeg // reusable ledger-segment scratch

	wireIn       int64
	wireOut      int64
	charged      int64 // wire bytes already attributed to the ledger
	contentBytes int64 // raw content bytes committed this session
	span         *obs.Span

	// caps is the capability word the client's Hello advertised; rTrace
	// and rParent hold the current remote trace context (set by the
	// latest TraceCtx frame, honored only with CapTrace advertised) that
	// request spans adopt as their cross-process parent.
	caps    uint32
	rTrace  obs.TraceID
	rParent uint64
}

// send encodes one reply into the session's pooled scratch and writes
// it, charging the bytes actually written to the server's ledger by
// message semantics. The server attributes by message type only:
// unlike the client it cannot know whether a peer's retry made these
// bytes a retransmission.
func (ss *session) send(m protocol.Message) error {
	enc := protocol.AppendEncode(ss.enc[:0], m)
	ss.enc = enc[:0]
	n, err := ss.w.Write(enc)
	if led := ss.srv.cfg.Ledger; led != nil {
		segs := messageSegments(ss.segs[:0], m, int64(len(enc)))
		ss.charged += chargeSegs(led, segs, int64(n))
		ss.segs = segs[:0]
	}
	if err != nil {
		return fmt.Errorf("syncnet: sending %v: %w", m.Type(), err)
	}
	return nil
}

// sendData writes one download Data piece as a vectored send: header
// from the pooled scratch, payload slice directly — the content is
// never copied into a frame buffer.
func (ss *session) sendData(fileID uint64, offset int64, payload []byte) error {
	hdr := protocol.AppendDataHeader(ss.enc[:0], fileID, offset, len(payload))
	ss.enc = hdr[:0]
	n, err := ss.w.writeVectored(hdr, payload)
	if led := ss.srv.cfg.Ledger; led != nil {
		segs := appendDataSegments(ss.segs[:0], int64(len(hdr)+len(payload)), int64(len(payload)))
		ss.charged += chargeSegs(led, segs, n)
		ss.segs = segs[:0]
	}
	if err != nil {
		return fmt.Errorf("syncnet: sending data: %w", err)
	}
	return nil
}

func (ss *session) sendErr(code uint32, msg string) {
	if err := ss.send(&protocol.Error{Code: code, Msg: msg}); err != nil {
		log.Printf("syncnet: sending error reply: %v", err)
	}
}

// chargeRead attributes one fully read request's wire bytes.
func (ss *session) chargeRead(m protocol.Message, consumed int64) {
	if led := ss.srv.cfg.Ledger; led != nil {
		segs := messageSegments(ss.segs[:0], m, consumed)
		ss.charged += chargeSegs(led, segs, consumed)
		ss.segs = segs[:0]
	}
}

// settle sweeps the session's unattributed wire bytes — partial frames
// read or written around a connection cut — into framing, after which
// the server ledger's total equals BytesReceived+BytesSent exactly.
func (ss *session) settle() {
	led := ss.srv.cfg.Ledger
	if led == nil {
		return
	}
	if resid := ss.wireIn + ss.wireOut - ss.charged; resid > 0 {
		led.Add(ledger.Framing, resid)
		ss.charged += resid
	}
}

type pendingUpload struct {
	id       uint64
	name     string
	size     int64
	hash     protocol.Fingerprint
	dedupHit bool
	stored   []byte // dedup hit: the content store's copy, fetched by the probe
	buf      []byte
}

// stash preserves every interrupted upload's buffer for resumption, in
// fileID order so the FIFO eviction bound stays deterministic. Dedup
// hits carry no data and empty buffers hold nothing worth resuming.
func (ss *session) stash() {
	if len(ss.uploads) == 0 {
		return
	}
	ids := make([]uint64, 0, len(ss.uploads))
	for id := range ss.uploads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		up := ss.uploads[id]
		delete(ss.uploads, id)
		ss.stashOne(up)
	}
}

func (ss *session) stashOne(up *pendingUpload) {
	if up.dedupHit || len(up.buf) == 0 {
		return
	}
	s := ss.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	key := pendingKey{user: ss.user, name: up.name, size: up.size, hash: up.hash}
	if _, ok := s.pending[key]; !ok {
		if len(s.pendingOrder) >= maxPendingUploads {
			delete(s.pending, s.pendingOrder[0])
			s.pendingOrder = s.pendingOrder[1:]
		}
		s.pendingOrder = append(s.pendingOrder, key)
	}
	s.pending[key] = up
	s.om.pendingResumable.Set(int64(len(s.pending)))
	s.logf("stashed partial upload %s/%s (%d bytes buffered)", ss.user, up.name, len(up.buf))
}

// takePending removes and returns the stashed partial upload for key,
// if any.
func (s *Server) takePending(key pendingKey) *pendingUpload {
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.pending[key]
	if !ok {
		return nil
	}
	delete(s.pending, key)
	for i, k := range s.pendingOrder {
		if k == key {
			s.pendingOrder = append(s.pendingOrder[:i], s.pendingOrder[i+1:]...)
			break
		}
	}
	return up
}

func (ss *session) handle(msg protocol.Message) error {
	if ss.srv.crashed.Load() {
		// The durable state is dead: behave like a killed process —
		// refuse everything, let the client reconnect after recovery.
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return ErrServerCrashed
	}
	switch m := msg.(type) {
	case *protocol.IndexUpdate:
		return ss.onIndexUpdate(m)
	case *protocol.ResumeQuery:
		return ss.onResumeQuery(m)
	case *protocol.Data:
		return ss.onData(m)
	case *protocol.Commit:
		return ss.onCommit(m)
	case *protocol.Delete:
		return ss.onDelete(m)
	case *protocol.Get:
		return ss.onGet(m)
	case *protocol.SigRequest:
		return ss.onSigRequest(m)
	case *protocol.DeltaMsg:
		return ss.onDelta(m)
	case *protocol.Bundle:
		return ss.onBundle(m)
	case *protocol.ListRequest:
		return ss.onList(m)
	default:
		ss.sendErr(protocol.ErrBadRequest, fmt.Sprintf("unexpected %v", msg.Type()))
		return fmt.Errorf("syncnet: unexpected message %v", msg.Type())
	}
}

// probe opens a whole-content upload of name, announced alone
// (IndexUpdate) or inside a Bundle: it resolves the identity the file
// would commit under — its own, or a freshly minted one — and looks the
// announced content up in the dedup store. stored is the store's copy
// on a hit; an index hit whose content is gone is a miss.
func (ss *session) probe(name string, hash protocol.Fingerprint, size int64) (id uint64, stored []byte, hit bool) {
	s := ss.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.files(ss.user)[name]; f != nil {
		id = f.id
	} else {
		s.nextID++
		id = s.nextID
	}
	if s.index.Lookup(ss.user, hash, size) {
		stored, hit = s.byHash[hash]
	}
	return id, stored, hit
}

// verifiedContent returns the raw content a whole-content upload
// commits: on a dedup hit the store's copy — filed under the very hash
// the client announced, so only transferred bytes need hashing — else
// the payload decompressed and checked against the announced hash. The
// announced size is checked either way. The error text is what the peer
// is told.
func (s *Server) verifiedContent(hit bool, stored, payload []byte, size int64, hash protocol.Fingerprint) ([]byte, error) {
	raw := stored
	if !hit {
		var err error
		if raw, err = comp.Decompress(payload, s.cfg.Compression); err != nil {
			return nil, errors.New("undecodable content")
		}
	}
	if int64(len(raw)) != size {
		return nil, errors.New("content size mismatch")
	}
	if !hit && md5.Sum(raw) != hash {
		return nil, errors.New("content hash mismatch")
	}
	return raw, nil
}

func (ss *session) onIndexUpdate(m *protocol.IndexUpdate) error {
	id, stored, hit := ss.probe(m.Name, m.FileHash, m.Size)
	ss.uploads[id] = &pendingUpload{id: id, name: m.Name, size: m.Size, hash: m.FileHash, dedupHit: hit, stored: stored}
	return ss.send(&protocol.IndexReply{FileID: id, DedupHit: hit})
}

// onResumeQuery adopts a stashed partial upload matching the client's
// identity triple and tells it where to continue; a zero ResumeInfo
// means start over (with a fresh IndexUpdate).
func (ss *session) onResumeQuery(m *protocol.ResumeQuery) error {
	s := ss.srv
	up := s.takePending(pendingKey{user: ss.user, name: m.Name, size: m.Size, hash: m.FileHash})
	if up == nil {
		return ss.send(&protocol.ResumeInfo{})
	}
	ss.uploads[up.id] = up
	s.mu.Lock()
	s.stats.Resumes++
	s.om.pendingResumable.Set(int64(len(s.pending)))
	s.mu.Unlock()
	s.om.resumes.Inc()
	s.logf("resuming %s/%s at offset %d", ss.user, up.name, len(up.buf))
	return ss.send(&protocol.ResumeInfo{FileID: up.id, Offset: int64(len(up.buf))})
}

func (ss *session) onData(m *protocol.Data) error {
	up := ss.uploads[m.FileID]
	if up == nil {
		ss.sendErr(protocol.ErrBadRequest, "data without matching index update")
		return fmt.Errorf("syncnet: stray data for file %d", m.FileID)
	}
	if int64(m.Offset) != int64(len(up.buf)) {
		ss.sendErr(protocol.ErrBadRequest, "out-of-order data")
		return fmt.Errorf("syncnet: data offset %d, expected %d", m.Offset, len(up.buf))
	}
	up.buf = append(up.buf, m.Payload...)
	return nil
}

func (ss *session) onCommit(m *protocol.Commit) error {
	up := ss.uploads[m.FileID]
	if up == nil {
		ss.sendErr(protocol.ErrBadRequest, "commit without upload")
		return fmt.Errorf("syncnet: stray commit for file %d", m.FileID)
	}
	delete(ss.uploads, m.FileID)

	ta := ss.applyStart()
	s := ss.srv
	raw, err := s.verifiedContent(up.dedupHit, up.stored, up.buf, up.size, up.hash)
	if err != nil {
		// Hard: a lone upload that fails verification ends the session.
		ss.sendErr(protocol.ErrBadRequest, err.Error())
		return fmt.Errorf("syncnet: commit of %q: %w", up.name, err)
	}

	id, version := ss.store(up.name, up.id, raw, up.hash, up.dedupHit)
	ss.applyEnd(ta)
	// Durability before acknowledgement: the commit must survive kill -9
	// once the client has seen the Ack.
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	return ss.send(&protocol.Ack{FileID: id, Version: version, OK: true})
}

// store commits raw content under the user's name and returns the
// identity and version it committed under. id is only a proposal,
// minted before the content was verified outside s.mu: when another
// session created the name in between, the file keeps the identity it
// was created with, and that is the one the caller must report.
func (ss *session) store(name string, id uint64, raw []byte, hash protocol.Fingerprint, wasDedup bool) (uint64, uint64) {
	s := ss.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.fileLocked(ss.user, name, id)
	f.data = raw
	f.hash = hash
	f.version++
	f.sig = nil // whole new content: nothing to carry over
	f.deleted = false
	f.history++
	s.index.Add(ss.user, hash, int64(len(raw)))
	if _, ok := s.byHash[hash]; !ok {
		s.byHash[hash] = raw
		s.stats.BytesStored += int64(len(raw))
		s.persistContentLocked(hash, raw)
	}
	s.persistFileLocked(ss.user, f)
	s.stats.Uploads++
	if wasDedup {
		s.stats.DedupSkips++
		s.om.dedupSkips.Inc()
	}
	s.om.uploads.Inc()
	s.om.bytesStored.Set(s.stats.BytesStored)
	ss.contentBytes += int64(len(raw))
	s.logf("stored %s/%s v%d (%d bytes, dedup=%v)", ss.user, name, f.version, len(raw), wasDedup)
	return f.id, f.version
}

// onBundle demultiplexes a batched small-file upload: each entry is
// checked and committed independently — dedup lookup by full-file
// hash, decompress, size and hash verification, store — and answered
// in one BundleReply. A bad entry is a soft, per-entry failure (OK
// stays false); the rest of the bundle still commits, so one corrupt
// tiny file cannot poison a batch of hundreds.
func (ss *session) onBundle(m *protocol.Bundle) error {
	s := ss.srv
	results := make([]protocol.BundleResult, len(m.Entries))
	committed := 0
	ta := ss.applyStart()
	for i := range m.Entries {
		en := &m.Entries[i]
		res := &results[i]

		id, stored, hit := ss.probe(en.Name, en.FileHash, en.Size)
		raw, err := s.verifiedContent(hit, stored, en.Payload, en.Size, en.FileHash)
		if err != nil {
			s.logf("bundle entry %s/%s: %v", ss.user, en.Name, err)
			continue
		}
		res.FileID, res.Version = ss.store(en.Name, id, raw, en.FileHash, hit)
		res.DedupHit, res.OK = hit, true
		committed++
	}
	ss.applyEnd(ta)
	var inline int64
	if len(m.Entries) == 1 {
		inline = int64(committed)
	}
	s.mu.Lock()
	s.stats.Bundles++
	s.stats.BundledFiles += int64(committed)
	s.stats.InlineUploads += inline
	s.mu.Unlock()
	s.om.bundles.Inc()
	s.om.bundleFiles.Add(int64(committed))
	s.om.inlineUploads.Add(inline)
	// One group commit covers the whole bundle: N entries, one fsync.
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	s.logf("bundle: committed %d/%d entries for %s", committed, len(m.Entries), ss.user)
	return ss.send(&protocol.BundleReply{Results: results})
}

// onList answers with the user's full remote listing — the remote
// observer of the watch-mode pipeline. Entries are sorted by name so
// the reply is deterministic for a given state; fake-deleted files are
// included (flagged) because a planner must distinguish "deleted
// remotely" from "never existed" when reconciling deletions.
func (ss *session) onList(*protocol.ListRequest) error {
	s := ss.srv
	s.mu.Lock()
	files := s.files(ss.user)
	entries := make([]protocol.ListEntry, 0, len(files))
	for name, f := range files {
		entries = append(entries, protocol.ListEntry{
			FileID: f.id, Name: name, Size: int64(len(f.data)),
			Version: f.version, Deleted: f.deleted, FileHash: f.hash,
		})
	}
	s.mu.Unlock()
	slices.SortFunc(entries, func(a, b protocol.ListEntry) int {
		return strings.Compare(a.Name, b.Name)
	})
	s.logf("listing: %d entries for %s", len(entries), ss.user)
	return ss.send(&protocol.Listing{Entries: entries})
}

func (ss *session) onDelete(m *protocol.Delete) error {
	s := ss.srv
	s.mu.Lock()
	target := s.byID[fileKey{ss.user, m.FileID}]
	if target == nil || target.deleted {
		s.mu.Unlock()
		ss.sendErr(protocol.ErrNotFound, "no such file")
		return nil
	}
	target.deleted = true // fake deletion: content retained
	target.version++
	target.sig = nil
	s.stats.Deletes++
	version := target.version
	s.persistFileLocked(ss.user, target)
	s.mu.Unlock()
	s.om.deletes.Inc()
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	return ss.send(&protocol.Ack{FileID: m.FileID, Version: version, OK: true})
}

func (ss *session) onGet(m *protocol.Get) error {
	s := ss.srv
	s.mu.Lock()
	f := s.files(ss.user)[m.Name]
	if f == nil || f.deleted {
		s.mu.Unlock()
		ss.sendErr(protocol.ErrNotFound, "no such file")
		return nil
	}
	raw := f.data
	info := &protocol.FileInfo{
		FileID: f.id, Name: f.name, Size: int64(len(raw)),
		Version: f.version, Compression: uint8(s.cfg.Compression),
	}
	s.stats.Downloads++
	s.mu.Unlock()
	s.om.downloads.Inc()

	if err := ss.send(info); err != nil {
		return err
	}
	payload := comp.Compress(raw, s.cfg.Compression)
	for off := 0; off < len(payload) || off == 0; off += DataPieceSize {
		end := off + DataPieceSize
		if end > len(payload) {
			end = len(payload)
		}
		if err := ss.sendData(info.FileID, int64(off), payload[off:end]); err != nil {
			return err
		}
		if len(payload) == 0 {
			break
		}
	}
	return ss.send(&protocol.Ack{FileID: info.FileID, Version: info.Version, OK: true})
}

// onSigRequest serves the signature a delta will be computed against.
// A repeat request for an unchanged (or delta-synced) file is answered
// from the file's cached signature; a miss signs outside s.mu — stored
// content is immutable, files only ever swap to a new slice — and
// publishes the result if the file has not moved meanwhile.
func (ss *session) onSigRequest(m *protocol.SigRequest) error {
	s := ss.srv
	bs := s.cfg.BlockSize
	if m.BlockSize > 0 {
		bs = int(m.BlockSize)
	}
	s.mu.Lock()
	f := s.files(ss.user)[m.Name]
	if f == nil || f.deleted {
		s.mu.Unlock()
		ss.sendErr(protocol.ErrNotFound, "no such file")
		return nil
	}
	data, version, c := f.data, f.version, f.currentSig(bs)
	s.mu.Unlock()
	if c != nil {
		s.om.sigCacheHits.Inc()
	} else {
		s.om.sigCacheMisses.Inc()
		c = &cachedSig{version: version, sig: delta.Sign(data, bs)}
		s.mu.Lock()
		if f.version == version {
			f.sig = c
		}
		s.mu.Unlock()
	}
	if ss.sigServed == nil {
		ss.sigServed = make(map[string]uint64)
	}
	ss.sigServed[m.Name] = version
	return ss.send(&protocol.SignatureMsg{Name: m.Name, Payload: c.sig.Encode()})
}

// onDelta applies a delta to the one version it was cut against, and to
// no other: a delta carries no full-file hash, so applied to any other
// basis it would corrupt the file silently. That version is the one the
// message names (BaseVersion: the sender kept the signature its last
// exchange ended on) or, unnamed, the one this session was last served
// the signature of. It is checked when the basis is read and again when
// the result is published; in between — Apply, MD5 and the next
// signature, all proportional to the file — the server lock is not held.
func (ss *session) onDelta(m *protocol.DeltaMsg) error {
	ta := ss.applyStart()
	d, err := delta.DecodeDelta(m.Payload)
	if err != nil {
		ss.sendErr(protocol.ErrBadRequest, "undecodable delta")
		return fmt.Errorf("syncnet: %w", err)
	}
	served, wasServed := ss.sigServed[m.Name]
	delete(ss.sigServed, m.Name)
	cond := m.BaseVersion != 0
	if cond {
		served, wasServed = m.BaseVersion, true
	}
	s := ss.srv
	s.mu.Lock()
	f := s.files(ss.user)[m.Name]
	if f == nil || f.deleted {
		s.mu.Unlock()
		ss.sendErr(protocol.ErrNotFound, "no such file")
		return nil
	}
	if !wasServed || f.version != served {
		s.mu.Unlock()
		return ss.staleBasis(m.Name, cond)
	}
	basis, old := f.data, f.currentSig(d.BlockSize)
	s.mu.Unlock()

	raw, err := delta.Apply(basis, d)
	if err != nil {
		ss.sendErr(protocol.ErrBadRequest, "inapplicable delta")
		return fmt.Errorf("syncnet: %w", err)
	}
	hash := md5.Sum(raw)
	// Another block size took the slot since this session was served:
	// drop it rather than sign the whole file here; the next SigRequest
	// refills it.
	var next *cachedSig
	if old != nil {
		sig, hashed := delta.Resign(old.sig, d, raw)
		next = &cachedSig{version: served + 1, sig: sig}
		s.om.sigResignedBlocks.Add(int64(hashed))
	}

	s.mu.Lock()
	if f.version != served {
		s.mu.Unlock()
		return ss.staleBasis(m.Name, cond)
	}
	f.data = raw
	f.version++
	f.history++
	f.hash = hash
	f.sig = next
	s.index.Add(ss.user, hash, int64(len(raw)))
	if _, ok := s.byHash[hash]; !ok {
		s.byHash[hash] = raw
		s.stats.BytesStored += int64(len(raw))
		s.persistContentLocked(hash, raw)
	}
	s.persistFileLocked(ss.user, f)
	s.stats.DeltaSyncs++
	if cond {
		s.stats.CondDeltas++
	}
	version := f.version
	id := f.id
	stored := s.stats.BytesStored
	s.mu.Unlock()
	s.om.deltaSyncs.Inc()
	if cond {
		s.om.condDeltas.Inc()
	}
	s.om.bytesStored.Set(stored)
	ss.contentBytes += int64(len(raw))
	ss.applyEnd(ta)
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	ss.srv.logf("delta-synced %s/%s v%d (%d literal bytes)", ss.user, m.Name, version, d.LiteralBytes())
	return ss.send(&protocol.Ack{FileID: id, Version: version, OK: true})
}

// staleBasis refuses a delta whose basis is no longer the file's
// content. Soft: the session continues, and the client answers by
// asking for the current signature. cond marks a delta that named its
// base version itself.
func (ss *session) staleBasis(name string, cond bool) error {
	if cond {
		s := ss.srv
		s.mu.Lock()
		s.stats.CondDeltaConflicts++
		s.mu.Unlock()
		s.om.condDeltaConflicts.Inc()
	}
	ss.srv.logf("refused stale-basis delta for %s/%s", ss.user, name)
	ss.sendErr(protocol.ErrConflict, "file changed since the delta's basis")
	return nil
}
