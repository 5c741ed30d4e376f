package syncnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

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
	recFile    = 1 // one file's metadata (content referenced by hash)
	recContent = 2 // one content blob, keyed by its MD5
	recIndex   = 3 // one dedup-index entry (snapshot-only)
)

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
	s := &Server{
		cfg:       cfg,
		users:     make(map[string]*account),
		epoch:     newEpoch(),
		byID:      make(map[fileKey]*serverFile),
		byHash:    make(map[dedup.Fingerprint][]byte),
		index:     dedup.NewIndex(cfg.CrossUserDedup),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		pending:   make(map[pendingKey]*pendingUpload),
		crashedC:  make(chan struct{}),
		om:        newServerObs(cfg.Metrics),
	}
	if cfg.StateDir != "" {
		st, err := wal.Open(cfg.StateDir, s.replayRecord)
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

// replayRecord applies one durable record during Open. It runs before
// the server is shared, so no locking; record bytes are not retained.
func (s *Server) replayRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("syncnet: empty state record")
	}
	c := wal.NewRecCursor(rec[1:])
	switch rec[0] {
	case recContent:
		hash := c.Hash16()
		data := c.Bytes()
		if c.Err() != nil {
			return fmt.Errorf("syncnet: content record: %w", c.Err())
		}
		if _, ok := s.byHash[hash]; !ok {
			s.byHash[hash] = append([]byte(nil), data...)
			s.om.bytesStored.Add(int64(len(data)))
		}
	case recIndex:
		scope := c.Str()
		hash := c.Hash16()
		size := c.I64()
		if c.Err() != nil {
			return fmt.Errorf("syncnet: index record: %w", c.Err())
		}
		// An entry's scope fed back through Add reproduces it exactly:
		// per-user indexes use the user name as scope, cross-user "".
		s.index.Add(scope, hash, size)
	case recFile:
		user := c.Str()
		name := c.Str()
		id := c.U64()
		version := c.U64()
		flags := c.U8()
		history := c.U64()
		hash := c.Hash16()
		if c.Err() != nil {
			return fmt.Errorf("syncnet: file record: %w", c.Err())
		}
		data, ok := s.byHash[hash]
		if !ok {
			return fmt.Errorf("syncnet: file record %s/%s references unknown content %x", user, name, hash)
		}
		f := s.fileLocked(user, name, id)
		f.data = data
		f.hash = hash
		f.version = version
		f.deleted = flags&1 != 0
		f.history = int(history)
		// Re-derive the live-path index add; duplicates (snapshot replay
		// after recIndex records) are no-ops.
		s.index.Add(user, hash, int64(len(data)))
		if id > s.nextID {
			s.nextID = id
		}
	default:
		return fmt.Errorf("syncnet: unknown state record kind %d", rec[0])
	}
	return nil
}

// encodeFileRec renders one file's metadata as a recFile record.
func encodeFileRec(user string, f *serverFile) []byte {
	b := make([]byte, 0, 64+len(user)+len(f.name))
	b = append(b, recFile)
	b = wal.AppendStr(b, user)
	b = wal.AppendStr(b, f.name)
	b = binary.LittleEndian.AppendUint64(b, f.id)
	b = binary.LittleEndian.AppendUint64(b, f.version)
	flags := byte(0)
	if f.deleted {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(f.history))
	return append(b, f.hash[:]...)
}

// persistContentLocked appends one content blob to the durable log.
// Caller holds s.mu and has just inserted the blob into byHash.
func (s *Server) persistContentLocked(hash protocol.Fingerprint, data []byte) {
	if s.persist == nil {
		return
	}
	b := make([]byte, 0, 1+16+4+len(data))
	b = append(b, recContent)
	b = append(b, hash[:]...)
	s.persist.Append(wal.AppendBytes(b, data))
}

// persistSync group-commits every record appended since the last sync —
// the durability point a session must cross before acknowledging. One
// fsync covers all mutations batched behind it (a whole Bundle, or
// several pipelined commits). When the log crosses the compaction
// threshold the whole state is folded into a snapshot. Any failure —
// the injected crash point included — marks the server crashed.
func (s *Server) persistSync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistSyncLocked()
}

func (s *Server) persistSyncLocked() error {
	if s.persist == nil {
		return nil
	}
	if err := s.persist.Sync(); err != nil {
		s.markCrashedLocked()
		return fmt.Errorf("%w: %v", ErrServerCrashed, err)
	}
	if s.persist.LogBytes() > s.cfg.CompactLogBytes {
		if err := s.persist.Compact(s.snapshotRecordsLocked()); err != nil {
			s.markCrashedLocked()
			return fmt.Errorf("%w: %v", ErrServerCrashed, err)
		}
	}
	return nil
}

// snapshotRecordsLocked renders the full server state as records, in
// replayable order: every content blob first (sorted by hash), then the
// dedup index (its scopes are not always derivable from live files —
// overwritten versions stay probe-able), then every file (sorted by
// user, name). Caller holds s.mu.
func (s *Server) snapshotRecordsLocked() [][]byte {
	var recs [][]byte
	hashes := make([]dedup.Fingerprint, 0, len(s.byHash))
	for h := range s.byHash {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return bytes.Compare(hashes[i][:], hashes[j][:]) < 0 })
	for _, h := range hashes {
		data := s.byHash[h]
		b := make([]byte, 0, 1+16+4+len(data))
		b = append(b, recContent)
		b = append(b, h[:]...)
		recs = append(recs, wal.AppendBytes(b, data))
	}
	for _, e := range s.index.Entries() {
		b := make([]byte, 0, 1+4+len(e.Scope)+16+8)
		b = append(b, recIndex)
		b = wal.AppendStr(b, e.Scope)
		b = append(b, e.FP[:]...)
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Size))
		recs = append(recs, b)
	}
	users := make([]string, 0, len(s.users))
	for u := range s.users {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		files := s.users[u].files
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			recs = append(recs, encodeFileRec(u, files[n]))
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
	if err := s.persist.Compact(s.snapshotRecordsLocked()); err != nil {
		s.markCrashedLocked()
		return fmt.Errorf("%w: %v", ErrServerCrashed, err)
	}
	return nil
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
