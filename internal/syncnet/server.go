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
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/delta"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
	"cloudsync/internal/store/wal"
	"cloudsync/internal/trace"
)

// DataPieceSize is the Data-message payload granularity for content
// transfer.
const DataPieceSize = 64 << 10

// drainWriteTimeout bounds how long a draining session may spend
// flushing replies to a peer that has stopped reading after Close
// half-closed its connection.
const drainWriteTimeout = 2 * time.Second

// maxFileSize bounds the size a peer may announce for a file — a whole
// upload, a bundle entry, a delta's target — and is checked before
// anything is allocated for it: 2 GiB, the largest file of the paper's
// trace. A delta of a few hundred bytes can name a target thousands of
// times its basis, all of which Apply would allocate.
const maxFileSize = trace.MaxFileSize

// maxPendingUploads caps the partial-upload buffers the server keeps
// for resumption; beyond it the oldest stash is evicted (the client
// then simply restarts that upload from scratch).
const maxPendingUploads = 64

// ErrServerClosed is returned by Serve and HandleConn after Close.
var ErrServerClosed = errors.New("syncnet: server closed")

// ServerConfig selects the server's design choices.
type ServerConfig struct {
	// Compression is applied to content on the wire, both ways
	// (comp.None disables it). Stored content is always raw: the server
	// decompresses what it receives, keeps and logs the uncompressed
	// bytes, and compresses them again for each download.
	Compression comp.Level
	// BlockSize is ignored: a SigRequest names its block size, else the
	// file's size sets it (delta.BlockSizeFor).
	//
	// Deprecated: the bench module's layer replay still reads the field;
	// it is deleted together with that replay.
	BlockSize int
	// CrossUserDedup shares the full-file dedup index across accounts.
	CrossUserDedup bool
	// Logf, when set, receives one line per handled request (useful in
	// syncd; tests leave it nil).
	Logf func(format string, args ...any)
	// Metrics, when set, receives the server's live metric set (the
	// syncd_* catalogue in docs/OBSERVABILITY.md). Nil keeps the
	// counters and gauges behind Stats private and the histograms off.
	Metrics *obs.Registry
	// Tracer, when set, records one span per client session with one
	// child span per handled request. When a session propagates a trace
	// context (TraceCtx frames), request spans are instead parented under
	// the client's remote operation span, so a client and server dump
	// merge into one tree (obs.Merge). Nil disables tracing at no cost.
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

// serverFile is a file as the last file record applied to it left it.
type serverFile struct {
	record
	data *blob // raw (uncompressed) content: the content store's own
	// seq is the account change sequence number of the file's last
	// commit in this server's lifetime (0 for a file replayed at open and
	// untouched since); older/newer link the account's committed files
	// in seq order. See feed.go.
	seq          uint64
	older, newer *serverFile
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
	// SignaturesServed counts SignatureMsg replies; when every signature
	// served is used, DeltaSyncs minus SignaturesServed is the delta
	// syncs cut against a signature the client remembered.
	// CondDeltaConflicts counts the deltas refused because the file was
	// not at the base version they named.
	SignaturesServed   int64
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

	mu sync.Mutex
	state
	// epoch names this server's lifetime in change-feed cursors: drawn
	// at random, never zero, never persisted (see feed.go).
	epoch uint64
	// minted is the last FileID probe handed out; an upload may never
	// commit the one it was given, so it can run ahead of nextID.
	minted    uint64
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	// pending holds partial uploads from dropped sessions, FIFO-bounded
	// by pendingOrder.
	pending      map[pendingKey]*pendingUpload
	pendingOrder []pendingKey

	handlers sync.WaitGroup // serve loops + connection handlers

	// persist is the durable state store (nil for in-RAM servers);
	// appended under s.mu, group-committed by persistSync outside it; the
	// pointer is set at open and cleared at Close. crashed trips
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

// Stats returns a snapshot of server activity, read from the server's
// syncd_* counters and gauges. Each field is read atomically, but not
// all at one instant: read a quiescent server for a consistent set.
func (s *Server) Stats() ServerStats {
	om := &s.om
	return ServerStats{
		Sessions:           om.sessions.Value(),
		Uploads:            om.uploads.Value(),
		DedupSkips:         om.dedupSkips.Value(),
		DeltaSyncs:         om.deltaSyncs.Value(),
		Downloads:          om.downloads.Value(),
		Deletes:            om.deletes.Value(),
		Resumes:            om.resumes.Value(),
		BytesStored:        om.bytesStored.Value(),
		Bundles:            om.bundles.Value(),
		BundledFiles:       om.bundleFiles.Value(),
		InlineUploads:      om.inlineUploads.Value(),
		SignaturesServed:   om.signaturesServed.Value(),
		CondDeltaConflicts: om.condDeltaConflicts.Value(),
		PendingResumable:   int(om.pendingResumable.Value()),
		BytesReceived:      om.bytesIn.Value(),
		BytesSent:          om.bytesOut.Value(),
	}
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
// so the request in hand is still handled and its reply flushed
// (bounded by drainWriteTimeout against peers that stopped reading),
// then waits for all serve loops and connection handlers to return.
// Transports without a read-side half-close (net.Pipe) are closed
// outright. Safe to call more than once.
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

// HandleConn runs one client session to completion. It returns nil on
// clean disconnect (EOF). A session that ends mid-upload — however it
// ends — stashes the partial buffers so a reconnecting client can
// resume them with a ResumeQuery.
//
// The session is one loop on the caller's goroutine: read a request,
// charge it, handle it, repeat. Replies therefore come back in request
// order.
func (s *Server) HandleConn(conn net.Conn) error {
	if err := s.register(conn); err != nil {
		conn.Close()
		return err
	}
	defer s.unregister(conn)
	sess := &session{srv: s, wc: newWireConn(conn, 512, 4096), uploads: make(map[uint64]*pendingUpload)}
	sess.wc.led, sess.wc.inC, sess.wc.outC = s.cfg.Ledger, s.om.bytesIn, s.om.bytesOut
	// Runs last: once every other defer has finished touching the wire,
	// close it and sweep the session's unattributed bytes into the ledger.
	defer sess.wc.settle()

	first, err := sess.wc.recv()
	if err != nil {
		return fmt.Errorf("syncnet: reading hello: %w", err)
	}
	hello, ok := first.(*protocol.Hello)
	if !ok {
		sess.sendErr(protocol.ErrBadRequest, "expected hello")
		return fmt.Errorf("syncnet: first message was %v", first.Type())
	}
	sess.user = hello.User
	sess.span = s.cfg.Tracer.Start("server.session",
		obs.String("user", hello.User), obs.String("device", hello.Device))
	defer sess.finish()
	defer sess.stash()
	if fl := s.cfg.Flight; fl != nil {
		fl.Record(obs.FlightRecord{At: time.Now().UnixNano(), Name: "server.session.start", User: hello.User})
	}
	s.logf("session start user=%s device=%s", hello.User, hello.Device)

	for {
		msg, err := sess.wc.recv()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("syncnet: reading message: %w", err)
		}
		if err := sess.dispatch(msg); err != nil {
			return err
		}
	}
}

// dispatch runs one request through handle, wrapped in its span, its
// duration metric, and its flight record. A TraceCtx frame is absorbed
// here — it is session plumbing, not a request: it updates the trace
// context the following requests' spans adopt, produces no reply, and
// counts in no request metric.
func (ss *session) dispatch(msg protocol.Message) error {
	if tc, ok := msg.(*protocol.TraceCtx); ok {
		ss.rTrace = obs.TraceID(tc.TraceID)
		ss.rParent = tc.SpanID
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
	ss.span.Set(obs.Int("bytes_in", ss.wc.in), obs.Int("bytes_out", ss.wc.out),
		obs.Int("content_bytes", ss.contentBytes))
	ss.span.End()
	if ss.contentBytes > 0 {
		ss.srv.om.sessionTUEMilli.Observe(ss.wc.in * 1000 / ss.contentBytes)
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

// logf logs through ServerConfig.Logf, if set. Boxing the arguments
// allocates even when it is not, so a per-file or per-poll line checks
// Logf before calling.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
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
	files := s.files(user)
	out := make(map[string]FileState, len(files))
	for name, f := range files {
		out[name] = FileState{
			ID:      f.id,
			Data:    f.data.bytes(),
			Version: f.version,
			Deleted: f.deleted,
			History: int(f.history),
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
	return f.data.bytes(), true
}

// session is the per-connection state: the connection, the
// in-progress uploads (a peer may have several index→data→commit
// exchanges in flight), the authenticated user, and the session's
// observability context (content-commit total, span).
type session struct {
	srv  *Server
	wc   wireConn
	user string

	uploads map[uint64]*pendingUpload // keyed by fileID

	contentBytes int64 // raw content bytes committed this session
	span         *obs.Span

	// rTrace and rParent hold the current remote trace context (set by
	// the latest TraceCtx frame) that request spans adopt as their
	// cross-process parent.
	rTrace  obs.TraceID
	rParent uint64
}

func (ss *session) sendErr(code uint32, msg string) {
	if err := ss.wc.send(&protocol.Error{Code: code, Msg: msg}); err != nil {
		log.Printf("syncnet: sending error reply: %v", err)
	}
}

type pendingUpload struct {
	id       uint64
	name     string
	size     int64
	hash     protocol.Fingerprint
	dedupHit bool
	stored   *blob // dedup hit: the content store's own, fetched by the probe
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
	s.om.pendingResumable.Set(int64(len(s.pending)))
	return up
}

func (ss *session) handle(msg protocol.Message) error {
	if ss.srv.crashed.Load() {
		// The durable state is dead: behave like a killed process —
		// refuse everything, let the client reconnect after recovery. A
		// Data frame's sender is still streaming and reads nothing before
		// its Commit, so it gets no reply: on a synchronous transport the
		// reply would block both ends. Ending the session is its answer.
		if _, ok := msg.(*protocol.Data); !ok {
			ss.sendErr(protocol.ErrInternal, "server crashed")
		}
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
// announced content up in the dedup store. stored is the store's own
// on a hit; an index hit whose content is gone is a miss.
func (ss *session) probe(name string, hash protocol.Fingerprint, size int64) (id uint64, stored *blob, hit bool) {
	s := ss.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.files(ss.user)[name]; f != nil {
		id = f.id
	} else {
		s.minted = max(s.minted, s.nextID) + 1
		id = s.minted
	}
	if s.index.Lookup(ss.user, hash, size) {
		stored, hit = s.byHash[hash]
	}
	return id, stored, hit
}

// verifiedContent returns the content a whole-content upload commits:
// on a dedup hit the store's own — filed under the very hash the client
// announced, so only transferred bytes need hashing — else the payload
// inflated into exactly the announced size, cut into leaves where it
// lies and checked against the announced hash, which fills in its leaf
// sums. The announced size is checked either way. The error text is
// what the peer is told.
func (s *Server) verifiedContent(hit bool, stored *blob, payload []byte, size int64, hash protocol.Fingerprint) (*blob, error) {
	if hit {
		if int64(stored.size()) != size {
			return nil, errSizeMismatch
		}
		return stored, nil
	}
	raw, err := s.decompress(payload, size)
	if errors.Is(err, comp.ErrSizeMismatch) {
		return nil, errSizeMismatch
	}
	if err != nil {
		return nil, errors.New("undecodable content")
	}
	c := newBlob(raw)
	if s.identify(c) != hash {
		return nil, errors.New("content hash mismatch")
	}
	return c, nil
}

var errSizeMismatch = errors.New("content size mismatch")

// tooLarge is what a peer announcing more than maxFileSize is told.
var tooLarge = fmt.Sprintf("file larger than %d bytes", int64(maxFileSize))

// decompress inflates an upload's payload into its announced size,
// timed into syncd_decompress_us when the server is metered and the
// level compresses at all.
func (s *Server) decompress(payload []byte, size int64) ([]byte, error) {
	if s.om.decompressUS == nil || s.cfg.Compression == comp.None {
		return comp.DecompressSize(payload, s.cfg.Compression, size)
	}
	t0 := time.Now()
	raw, err := comp.DecompressSize(payload, s.cfg.Compression, size)
	s.om.decompressUS.Observe(time.Since(t0).Microseconds())
	return raw, err
}

func (ss *session) onIndexUpdate(m *protocol.IndexUpdate) error {
	if m.Size > maxFileSize {
		ss.sendErr(protocol.ErrBadRequest, tooLarge)
		return nil
	}
	id, stored, hit := ss.probe(m.Name, m.FileHash, m.Size)
	ss.uploads[id] = &pendingUpload{id: id, name: m.Name, size: m.Size, hash: m.FileHash, dedupHit: hit, stored: stored}
	return ss.wc.send(&protocol.IndexReply{FileID: id, DedupHit: hit})
}

// onResumeQuery adopts a stashed partial upload matching the client's
// identity triple and tells it where to continue; a zero ResumeInfo
// means start over (with a fresh IndexUpdate).
func (ss *session) onResumeQuery(m *protocol.ResumeQuery) error {
	s := ss.srv
	up := s.takePending(pendingKey{user: ss.user, name: m.Name, size: m.Size, hash: m.FileHash})
	if up == nil {
		return ss.wc.send(&protocol.ResumeInfo{})
	}
	ss.uploads[up.id] = up
	s.om.resumes.Inc()
	s.logf("resuming %s/%s at offset %d", ss.user, up.name, len(up.buf))
	return ss.wc.send(&protocol.ResumeInfo{FileID: up.id, Offset: int64(len(up.buf))})
}

// onData appends one piece to its upload. A bad piece ends the session
// without a reply: its sender is still streaming (see handle). So does
// one that would buffer more than the announced size can compress to.
func (ss *session) onData(m *protocol.Data) error {
	up := ss.uploads[m.FileID]
	if up == nil {
		return fmt.Errorf("syncnet: stray data for file %d", m.FileID)
	}
	if int64(m.Offset) != int64(len(up.buf)) {
		return fmt.Errorf("syncnet: data offset %d, expected %d", m.Offset, len(up.buf))
	}
	if bound := comp.CompressBound(up.size, ss.srv.cfg.Compression); m.Offset+int64(len(m.Payload)) > bound {
		return fmt.Errorf("syncnet: upload of %q past %d bytes, all that %d bytes compress to", up.name, bound, up.size)
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
	c, err := s.verifiedContent(up.dedupHit, up.stored, up.buf, up.size, up.hash)
	if err != nil {
		// Hard: a lone upload that fails verification ends the session.
		ss.sendErr(protocol.ErrBadRequest, err.Error())
		return fmt.Errorf("syncnet: commit of %q: %w", up.name, err)
	}

	id, version := ss.store(up.name, up.id, c, up.hash, up.dedupHit)
	ss.applyEnd(ta)
	// Durability before acknowledgement: the commit must survive kill -9
	// once the client has seen the Ack.
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	return ss.wc.send(&protocol.Ack{FileID: id, Version: version, OK: true})
}

// store commits content c under the user's name and returns the
// identity and version it committed under. id is only a proposal,
// minted before the content was verified outside s.mu: when another
// session created the name in between, the file keeps the identity it
// was created with, and that is the one the caller must report.
func (ss *session) store(name string, id uint64, c *blob, hash protocol.Fingerprint, wasDedup bool) (uint64, uint64) {
	s := ss.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	id, version := s.putLocked(ss.user, name, id, c, hash)
	if wasDedup {
		s.om.dedupSkips.Inc()
	}
	s.om.uploads.Inc()
	ss.contentBytes += int64(c.size())
	if s.cfg.Logf != nil {
		s.logf("stored %s/%s v%d (%d bytes, dedup=%v)", ss.user, name, version, c.size(), wasDedup)
	}
	return id, version
}

// putLocked commits c as the next version of the user's file under
// name, a new file with the given id when the name is free, and returns
// the file's identity and version. When the store already holds c's
// bytes, the file takes the store's content, which takes c's leaf sums
// if it has none. s.mu is held.
func (s *Server) putLocked(user, name string, id uint64, c *blob, hash protocol.Fingerprint) (uint64, uint64) {
	r := record{kind: recFile, user: user, name: name, id: id, version: 1, history: 1, hash: hash}
	if f := s.files(user)[name]; f != nil {
		r.id, r.version, r.history = f.id, f.version+1, f.history+1
	}
	if held := s.byHash[hash]; held != nil {
		if held.sums == nil {
			held.sums = c.sums
		}
		s.commitLocked(r)
	} else {
		s.commitLocked(record{kind: recContent, hash: hash, data: c}, r)
	}
	return r.id, r.version
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

		if en.Size > maxFileSize {
			s.logf("bundle entry %s/%s: %s", ss.user, en.Name, tooLarge)
			continue
		}
		id, stored, hit := ss.probe(en.Name, en.FileHash, en.Size)
		c, err := s.verifiedContent(hit, stored, en.Payload, en.Size, en.FileHash)
		if err != nil {
			if s.cfg.Logf != nil {
				s.logf("bundle entry %s/%s: %v", ss.user, en.Name, err)
			}
			continue
		}
		res.FileID, res.Version = ss.store(en.Name, id, c, en.FileHash, hit)
		res.DedupHit, res.OK = hit, true
		committed++
	}
	ss.applyEnd(ta)
	var inline int64
	if len(m.Entries) == 1 {
		inline = int64(committed)
	}
	s.om.bundles.Inc()
	s.om.bundleFiles.Add(int64(committed))
	s.om.inlineUploads.Add(inline)
	// One group commit covers the whole bundle: N entries, one fsync.
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	if s.cfg.Logf != nil {
		s.logf("bundle: committed %d/%d entries for %s", committed, len(m.Entries), ss.user)
	}
	return ss.wc.send(&protocol.BundleReply{Results: results})
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
	r := target.record
	r.version, r.deleted = target.version+1, true // fake deletion: content retained
	s.commitLocked(r)
	s.mu.Unlock()
	s.om.deletes.Inc()
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	return ss.wc.send(&protocol.Ack{FileID: m.FileID, Version: r.version, OK: true})
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
	c := f.data
	info := &protocol.FileInfo{
		FileID: f.id, Name: f.name, Size: int64(c.size()),
		Version: f.version, Compression: uint8(s.cfg.Compression),
	}
	s.mu.Unlock()
	s.om.downloads.Inc()

	if err := ss.wc.send(info); err != nil {
		return err
	}
	payload := c.leaves
	if s.cfg.Compression != comp.None {
		payload = [][]byte{comp.Compress(c.bytes(), s.cfg.Compression)}
	}
	if err := ss.wc.sendPayload(info.FileID, payload, 0); err != nil {
		return err
	}
	return ss.wc.send(&protocol.Ack{FileID: info.FileID, Version: info.Version, OK: true})
}

// onSigRequest serves the signature a delta will be computed against,
// with the file version it describes, at the block size the request
// names, else the one the file's size calls for. A named size outside
// [delta.MinBlockSize, delta.MaxBlockSize] is refused, softly: below it
// the signature of a large file would outweigh the file, above 2³¹ the
// size is negative as a 32-bit int. Stored leaves are immutable — files
// only ever swap to a new content — so the file is signed outside s.mu,
// leaf by leaf, and nothing is kept.
func (ss *session) onSigRequest(m *protocol.SigRequest) error {
	if bs := m.BlockSize; bs != 0 && (bs < delta.MinBlockSize || bs > delta.MaxBlockSize) {
		ss.sendErr(protocol.ErrBadRequest, "block size out of range")
		return nil
	}
	s := ss.srv
	s.mu.Lock()
	f := s.files(ss.user)[m.Name]
	if f == nil || f.deleted {
		s.mu.Unlock()
		ss.sendErr(protocol.ErrNotFound, "no such file")
		return nil
	}
	c, version := f.data, f.version
	s.mu.Unlock()
	s.om.signaturesServed.Inc()
	bs := cmp.Or(int(m.BlockSize), delta.BlockSizeFor(int64(c.size())))
	return ss.wc.send(&protocol.SignatureMsg{Name: m.Name, Payload: delta.SignParts(c.leaves, bs).Encode(), Version: version})
}

// onDelta applies a delta to the one version it was cut against, and to
// no other: a delta carries no full-file hash, so applied to any other
// basis it would corrupt the file silently. That version is the one the
// message names, checked when the basis is read and again when the
// result is published; in between — building the leaves the delta
// touched (applyDelta) and hashing them — the server lock is not held.
// A target past maxFileSize is refused before anything is built.
func (ss *session) onDelta(m *protocol.DeltaMsg) error {
	ta := ss.applyStart()
	d, err := delta.DecodeDelta(m.Payload)
	if err != nil {
		ss.sendErr(protocol.ErrBadRequest, "undecodable delta")
		return fmt.Errorf("syncnet: %w", err)
	}
	if d.TargetSize > maxFileSize {
		ss.sendErr(protocol.ErrBadRequest, tooLarge)
		return nil
	}
	s := ss.srv
	s.mu.Lock()
	f := s.files(ss.user)[m.Name]
	if f == nil || f.deleted {
		s.mu.Unlock()
		ss.sendErr(protocol.ErrNotFound, "no such file")
		return nil
	}
	if f.version != m.BaseVersion {
		s.mu.Unlock()
		return ss.staleBasis(m.Name)
	}
	basis := *f.data // its sums may be set under s.mu (putLocked)
	s.mu.Unlock()

	c, built, err := applyDelta(&basis, d)
	if err != nil {
		ss.sendErr(protocol.ErrBadRequest, "inapplicable delta")
		return fmt.Errorf("syncnet: %w", err)
	}
	s.om.deltaBuiltBytes.Add(int64(built))
	hash := s.identify(c)

	s.mu.Lock()
	if f.version != m.BaseVersion {
		s.mu.Unlock()
		return ss.staleBasis(m.Name)
	}
	id, version := s.putLocked(ss.user, m.Name, f.id, c, hash)
	s.mu.Unlock()
	s.om.deltaSyncs.Inc()
	s.om.deltaLiteralBytes.Add(int64(d.LiteralBytes()))
	ss.contentBytes += int64(c.size())
	ss.applyEnd(ta)
	if err := s.persistSync(); err != nil {
		ss.sendErr(protocol.ErrInternal, "server crashed")
		return err
	}
	if s.cfg.Logf != nil {
		s.logf("delta-synced %s/%s v%d (%d literal bytes)", ss.user, m.Name, version, d.LiteralBytes())
	}
	return ss.wc.send(&protocol.Ack{FileID: id, Version: version, OK: true})
}

// staleBasis counts and refuses a delta cut against a version the file
// is not at. Soft: the session continues, and the client answers by
// asking for the current signature.
func (ss *session) staleBasis(name string) error {
	ss.srv.om.condDeltaConflicts.Inc()
	ss.srv.logf("refused stale-basis delta for %s/%s", ss.user, name)
	ss.sendErr(protocol.ErrConflict, "file changed since the delta's basis")
	return nil
}
