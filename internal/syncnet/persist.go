package syncnet

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cloudsync/internal/bin"
	"cloudsync/internal/dedup"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
	"cloudsync/internal/store/wal"
)

// ErrServerCrashed is returned by sessions and registration once the
// server's durable state has died — an injected crash point tripped or
// a real WAL I/O failure. A crashed server refuses all further work;
// recovery is reopening the state directory in a fresh process (or a
// fresh OpenServer), which replays exactly the state as of the last
// completed group commit.
var ErrServerCrashed = errors.New("syncnet: server crashed (durable state dead)")

// Record kinds of the server's durable log. The codec is internal to
// this package; docs/DURABILITY.md documents the framing below it.
const (
	recFile        = 1 // one file's metadata (content referenced by hash)
	recMD5Content  = 2 // a content blob keyed by its MD5: refused
	recIndex       = 3 // one dedup-index entry (snapshot-only)
	recFlatContent = 4 // a content blob keyed by its flat SHA-256 prefix: refused
	recContent     = 5 // one content blob, keyed by its protocol.Sum
)

// ErrStaleContentRecord is returned by OpenServer for a state directory
// written under an earlier file identity: its content records (kind 2,
// MD5; kind 4, a SHA-256 prefix of the whole file) are keyed by a hash
// this server no longer computes.
var ErrStaleContentRecord = errors.New("syncnet: state holds content records keyed by an earlier file identity")

// DefaultCompactLogBytes is the log-size threshold at which a durable
// server folds its log into a snapshot when ServerConfig.CompactLogBytes
// is zero.
const DefaultCompactLogBytes = 64 << 20

// OpenServer constructs a server, replaying durable state from
// cfg.StateDir when it is set. With an empty StateDir the server is
// purely in-RAM and OpenServer cannot fail (NewServer wraps this case).
func OpenServer(cfg ServerConfig) (*Server, error) {
	if cfg.BlockSize < 0 {
		panic(fmt.Sprintf("syncnet: negative block size %d", cfg.BlockSize))
	}
	if cfg.CompactLogBytes == 0 {
		cfg.CompactLogBytes = DefaultCompactLogBytes
	}
	om := newServerObs(cfg.Metrics)
	s := &Server{
		cfg: cfg,
		state: state{
			users:       make(map[string]*account),
			byID:        make(map[fileKey]*serverFile),
			byHash:      make(map[dedup.Fingerprint][]byte),
			index:       dedup.NewIndex(cfg.CrossUserDedup),
			bytesStored: om.bytesStored,
		},
		leafSums:  make(map[protocol.Fingerprint][]protocol.LeafSum),
		epoch:     newEpoch(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		pending:   make(map[pendingKey]*pendingUpload),
		crashedC:  make(chan struct{}),
		om:        om,
	}
	if cfg.StateDir != "" {
		// Replay applies each record as the live commit did, unlocked.
		st, err := wal.Open(cfg.StateDir, func(rec []byte) error {
			r, err := decodeRecord(rec)
			if err == nil {
				err = s.apply(r)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		// WAL series exist on /metrics only when a state dir is
		// configured: an in-RAM server has no fsyncs to report.
		if cfg.Metrics != nil {
			st.SetMetrics(walMetrics(cfg.Metrics))
		}
		s.persist = st
	}
	return s, nil
}

// record is one entry of the durable log, an absolute state: a file's
// whole metadata, a content blob or a dedup-index entry.
type record struct {
	kind        byte
	deleted     bool
	user, name  string // user: a file's owner, an index entry's scope
	id, version uint64
	history     uint64 // versions ever stored (fake deletion keeps content)
	hash        protocol.Fingerprint
	data        []byte // content
	size        int64  // index
}

// encode renders r in the log's format: the kind, then for a file user,
// name, id, version, deleted (a bool byte), history and hash; for
// content hash and data; for an index entry scope, hash and size.
func (r *record) encode() []byte {
	b := append(make([]byte, 0, 1+4+len(r.user)+4+len(r.name)+3*8+1+16+4+len(r.data)), r.kind)
	switch r.kind {
	case recFile:
		b = bin.AppendU64(bin.AppendU64(bin.AppendStr(bin.AppendStr(b, r.user), r.name), r.id), r.version)
		b = append(bin.AppendU64(bin.AppendBool(b, r.deleted), r.history), r.hash[:]...)
	case recContent:
		b = bin.AppendBytes(append(b, r.hash[:]...), r.data)
	case recIndex:
		b = bin.AppendU64(append(bin.AppendStr(b, r.user), r.hash[:]...), uint64(r.size))
	}
	return b
}

// decodeRecord parses one log record strictly: one encode would not
// reproduce byte for byte is an error. r does not alias b.
func decodeRecord(b []byte) (r record, err error) {
	c := bin.NewReader(b)
	switch r.kind = c.U8(); r.kind {
	case recFile:
		r.user, r.name, r.id, r.version = c.Str(), c.Str(), c.U64(), c.U64()
		r.deleted, r.history, r.hash = c.Bool(), c.U64(), c.Bytes16()
	case recContent:
		r.hash, r.data = c.Bytes16(), c.Bytes()
	case recIndex:
		r.user, r.hash, r.size = c.Str(), c.Bytes16(), c.I64()
	case recMD5Content, recFlatContent:
		return r, fmt.Errorf("%w (kind %d)", ErrStaleContentRecord, r.kind)
	default:
		return r, fmt.Errorf("syncnet: unknown state record kind %d", r.kind)
	}
	if err := c.End(); err != nil {
		return r, fmt.Errorf("syncnet: malformed state record of kind %d: %w", r.kind, err)
	}
	return r, nil
}

// commitLocked is every live mutation's one path: each record in order
// is appended to the log, if any, then applied, so replay rebuilds what
// was acknowledged. A file record follows the content it names and
// stamps the feed; one that does not apply is a bug. s.mu is held.
func (s *Server) commitLocked(recs ...record) {
	for _, r := range recs {
		if s.persist != nil {
			s.persist.Append(r.encode())
		}
		if err := s.apply(r); err != nil {
			panic(err)
		}
		if r.kind == recFile {
			s.stampLocked(r.user, s.users[r.user].files[r.name])
		}
	}
}

// persistSync makes every record appended so far durable — the point
// a session must cross before acknowledging, so its ACK also covers
// records other sessions appended before its own (a dedup hit's content
// record, say). The write and fsync run outside s.mu, one flush
// covering every session waiting on it (wal.Store.Sync). When the log
// crosses the compaction threshold the whole state is folded into a
// snapshot, under s.mu. Any failure — the injected crash point included
// — marks the server crashed.
func (s *Server) persistSync() error {
	s.mu.Lock()
	p := s.persist
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	if err := p.Sync(); err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.crashLocked(err)
	}
	if p.LogBytes() <= s.cfg.CompactLogBytes {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.LogBytes() <= s.cfg.CompactLogBytes {
		return nil // another session compacted first
	}
	return s.compactLocked()
}

// compactLocked folds the durable log into a snapshot of the state
// under s.mu, which the caller holds.
func (s *Server) compactLocked() error {
	if err := s.persist.Compact(s.snapshotRecordsLocked()); err != nil {
		return s.crashLocked(err)
	}
	return nil
}

// crashLocked marks the server crashed by the durable store's err and
// returns the error a session reports. Caller holds s.mu.
func (s *Server) crashLocked(err error) error {
	s.markCrashedLocked()
	return fmt.Errorf("%w: %v", ErrServerCrashed, err)
}

// snapshotRecordsLocked renders the full server state as records, in
// replayable order: every content blob first (sorted by hash), then the
// dedup index (its scopes are not always derivable from live files —
// overwritten versions stay probe-able), then every file (sorted by
// user, name). Caller holds s.mu.
func (s *Server) snapshotRecordsLocked() [][]byte {
	var recs [][]byte
	for _, h := range slices.SortedFunc(maps.Keys(s.byHash), func(a, b dedup.Fingerprint) int { return bytes.Compare(a[:], b[:]) }) {
		r := record{kind: recContent, hash: h, data: s.byHash[h]}
		recs = append(recs, r.encode())
	}
	for _, e := range s.index.Entries() {
		r := record{kind: recIndex, user: e.Scope, hash: e.FP, size: e.Size}
		recs = append(recs, r.encode())
	}
	for _, u := range slices.Sorted(maps.Keys(s.users)) {
		files := s.users[u].files
		for _, n := range slices.Sorted(maps.Keys(files)) {
			recs = append(recs, files[n].encode())
		}
	}
	return recs
}

// markCrashedLocked trips the crashed state once: registration and
// dispatch refuse from here on, and CrashedC unblocks watchers (syncd
// exits non-zero). The flight recorder's black box is dumped *before*
// CrashedC closes, so a watcher that exits the process on the signal
// (syncd's os.Exit(3)) can never race the dump to disk.
func (s *Server) markCrashedLocked() {
	if s.crashed.CompareAndSwap(false, true) {
		s.dumpFlightLocked()
		close(s.crashedC)
	}
}

// dumpFlightLocked writes the flight recorder's recent records to
// StateDir/flight-<unixnano>.jsonl. Best effort by design: the server
// is already dead, so a dump failure is only logged — it must never
// mask the crash itself.
func (s *Server) dumpFlightLocked() {
	fl := s.cfg.Flight
	if fl == nil || s.cfg.StateDir == "" {
		return
	}
	now := time.Now()
	fl.Record(obs.FlightRecord{At: now.UnixNano(), Name: "server.crash", Err: "durable state dead"})
	path := filepath.Join(s.cfg.StateDir, fmt.Sprintf("flight-%d.jsonl", now.UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		s.logf("flight dump: %v", err)
		return
	}
	werr := fl.WriteJSONL(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		s.logf("flight dump: %v", werr)
		return
	}
	s.logf("flight recorder dumped to %s", path)
}

// Crashed reports whether the server's durable state has died.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// CrashedC is closed when the server crashes — the signal syncd uses
// to exit so a supervisor restarts it into recovery.
func (s *Server) CrashedC() <-chan struct{} { return s.crashedC }

// FailStateAt arms an injected crash point on the durable state log at
// an absolute log-file offset (no-op for in-RAM servers; -1 disarms).
// The group commit that would carry the log past the offset writes only
// a torn prefix and kills the server — kill -9 at that exact byte.
func (s *Server) FailStateAt(offset int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist != nil {
		s.persist.FailAt(offset)
	}
}

// StateLogBytes reports the durable log's current size including
// unsynced appends (0 for in-RAM servers). The crash harness measures a
// clean run's total to aim seeded crash offsets inside it.
func (s *Server) StateLogBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil {
		return 0
	}
	return s.persist.LogBytes()
}

// CompactState folds the durable log into a snapshot now, regardless of
// the size threshold (no-op for in-RAM servers). Tests use it to cover
// the snapshot-replay path without writing CompactLogBytes of traffic.
func (s *Server) CompactState() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil {
		return nil
	}
	return s.compactLocked()
}

// closePersist tears down the durable store at server Close, flushing
// buffered records (unless crashed — a dead store writes nothing more).
func (s *Server) closePersist() error {
	s.mu.Lock()
	p := s.persist
	s.persist = nil
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Close()
}
