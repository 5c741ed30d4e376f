package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store manages one durable state directory: the current generation's
// snapshot (if any) plus its record log. State is reconstructed by
// replaying snapshot records then log records through the caller's
// replay function; Compact folds the log into a fresh snapshot and
// starts an empty log.
//
// Directory layout (generation G, zero-padded):
//
//	snap-0000000G.log   compacted state as a record log (absent for a
//	                    fresh store: the base state is empty)
//	wal-0000000G.log    records appended since snapshot G
//
// Crash windows during Compact leave either the old generation intact
// (snapshot write unfinished: only an ignored *.tmp remains) or the
// new one already authoritative (snapshot renamed; a missing log is
// recreated empty, stale older-generation files are swept). Open
// always selects the highest complete snapshot, so recovery is
// deterministic whatever the crash point.
//
// A Store is safe for concurrent use. Append only buffers, under a
// small mutex. Sync runs leader/follower under a flush mutex: the
// caller that takes it writes and fsyncs every frame buffered so far,
// and a caller whose frames that flush covered returns without one.
type Store struct {
	dir     string
	metrics *Metrics

	// flush is held by whoever writes the log — a commit's leader,
	// Compact, Close — and guards the log's file and crash points.
	flush sync.Mutex
	// mu guards the rest, and is held for nothing slower than a copy.
	mu      sync.Mutex
	log     *Log   // swapped by Compact under both mutexes
	gen     uint64 // likewise
	pending []byte // frames appended since the last flush began
	spare   []byte // the buffer the last flush wrote, for reuse
	// Commit offsets: positions in everything appended to the store,
	// which keep growing across compactions.
	base    int64 // commit offset of the current log's first byte
	end     int64 // commit offset past the last appended frame
	durable int64 // commit offset up to which the log is durable
	dead    bool
}

const (
	snapPrefix = "snap-"
	walPrefix  = "wal-"
	genSuffix  = ".log"
)

func genFile(prefix string, gen uint64) string {
	return fmt.Sprintf("%s%08d%s", prefix, gen, genSuffix)
}

// parseGen extracts the generation from a snap-/wal- file name, or
// returns false for anything else (tmp droppings, foreign files).
func parseGen(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, genSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), genSuffix)
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Open opens (creating if needed) the state directory and replays the
// current generation — snapshot records first, then log records — in
// order through replay. Torn log tails are discarded and repaired;
// stale generations and temp files from interrupted compactions are
// swept. replay must not retain the record slice.
func Open(dir string, replay func(rec []byte) error) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: state dir: %w", err)
	}

	var snapGens, walGens []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // interrupted compaction
			continue
		}
		if g, ok := parseGen(name, snapPrefix); ok {
			snapGens = append(snapGens, g)
		}
		if g, ok := parseGen(name, walPrefix); ok {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	// The authoritative generation: the newest complete snapshot (a
	// snapshot is complete by construction — it is renamed into place
	// only after its bytes are fsynced). With no snapshot yet, the
	// newest log continues generation 1's empty base state.
	gen := uint64(1)
	hasSnap := false
	if n := len(snapGens); n > 0 {
		gen = snapGens[n-1]
		hasSnap = true
	} else if n := len(walGens); n > 0 {
		gen = walGens[n-1]
	}

	// Sweep every other generation: superseded by the snapshot we are
	// about to load, or orphaned by a crash mid-compaction.
	for _, g := range snapGens {
		if g != gen {
			os.Remove(filepath.Join(dir, genFile(snapPrefix, g)))
		}
	}
	for _, g := range walGens {
		if g != gen {
			os.Remove(filepath.Join(dir, genFile(walPrefix, g)))
		}
	}

	if hasSnap {
		f, err := os.Open(filepath.Join(dir, genFile(snapPrefix, gen)))
		if err != nil {
			return nil, fmt.Errorf("wal: open snapshot: %w", err)
		}
		_, rerr := replayFrames(f, replay)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
	}
	log, err := OpenLog(filepath.Join(dir, genFile(walPrefix, gen)), replay)
	if err != nil {
		return nil, err
	}
	syncDir(dir)
	return &Store{dir: dir, gen: gen, log: log, end: log.Size(), durable: log.Size()}, nil
}

// SetMetrics installs (or, with nil, removes) the store's instrument
// set; it propagates to the current log and survives the log swap a
// Compact performs. Install before serving traffic — SetMetrics is not
// synchronized against concurrent Sync/Compact.
func (st *Store) SetMetrics(m *Metrics) {
	st.metrics = m
	st.log.metrics = m
}

// Dir returns the state directory path.
func (st *Store) Dir() string { return st.dir }

// Generation returns the current snapshot/log generation.
func (st *Store) Generation() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// Append buffers one record for the next flush. It never touches the
// disk — durability is Sync's job — so it cannot fail; a dead store's
// buffered records are simply never written.
func (st *Store) Append(rec []byte) {
	st.mu.Lock()
	n := len(st.pending)
	st.pending = appendFrame(st.pending, rec)
	st.end += int64(len(st.pending) - n)
	st.mu.Unlock()
}

// Sync returns once every record appended before the call is durable:
// at once if a finished flush covered them, else after the flush it
// leads or waits behind — one fsync for every caller waiting at the
// time. A dead store returns ErrCrashed.
func (st *Store) Sync() error {
	var t0 time.Time
	if st.metrics != nil {
		t0 = time.Now()
	}
	err := st.sync()
	if m := st.metrics; m != nil && err == nil {
		m.CommitWaitUS.Observe(time.Since(t0).Microseconds())
	}
	return err
}

func (st *Store) sync() error {
	st.mu.Lock()
	end := st.end
	st.mu.Unlock()
	if done, err := st.covered(end); done {
		return err
	}
	st.flush.Lock()
	defer st.flush.Unlock()
	if done, err := st.covered(end); done {
		return err
	}
	return st.flushLocked()
}

// covered reports whether a commit up to end is decided: durable, or
// never to be, the store being dead.
func (st *Store) covered(end int64) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return true, ErrCrashed
	}
	return st.durable >= end, nil
}

// flushLocked writes and fsyncs every frame buffered so far, holding mu
// only to swap the buffer out and to publish the result. The caller
// holds flush.
func (st *Store) flushLocked() error {
	st.mu.Lock()
	if st.dead {
		st.mu.Unlock()
		return ErrCrashed
	}
	buf, end := st.pending, st.end
	st.pending = st.spare[:0]
	st.mu.Unlock()

	err := st.log.write(buf)

	st.mu.Lock()
	defer st.mu.Unlock()
	st.spare = buf[:0]
	if err != nil {
		st.dead = true
		return err
	}
	st.durable = end
	return nil
}

// LogBytes reports the current log's size including unsynced appends —
// the quantity compaction policies threshold on. It never waits on a
// flush.
func (st *Store) LogBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.end - st.base
}

// FailAt arms the injected crash point on the current log at an
// absolute log-file offset (see Log.FailAt).
func (st *Store) FailAt(offset int64) {
	st.flush.Lock()
	defer st.flush.Unlock()
	st.log.FailAt(offset)
}

// StallSync holds the next flush after its write and before its fsync
// until release is closed — a test's stand-in for a slow disk. The
// returned channel closes when a flush is held. Like FailAt it arms the
// current log.
func (st *Store) StallSync(release <-chan struct{}) (held <-chan struct{}) {
	st.flush.Lock()
	defer st.flush.Unlock()
	s := &stall{held: make(chan struct{}), release: release}
	st.log.stall = s
	return s.held
}

// Dead reports whether the store has crashed.
func (st *Store) Dead() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dead
}

// Compact writes state — the caller's full current state rendered as
// records — as the next generation's snapshot, starts that
// generation's empty log, and removes the old generation. The snapshot
// is fsynced before the atomic rename that makes it authoritative, so
// a crash at any byte leaves either the old generation or the new one,
// never a blend. The caller must guarantee quiescence (no concurrent
// Append); concurrent Sync calls wait, and return once the flush
// Compact begins with covers them.
func (st *Store) Compact(state [][]byte) error {
	st.flush.Lock()
	defer st.flush.Unlock()
	if err := st.flushLocked(); err != nil {
		return err
	}
	next := st.gen + 1

	tmp, err := os.CreateTemp(st.dir, snapPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact: %w", err)
	}
	var buf []byte
	var snapBytes int64
	for _, rec := range state {
		buf = appendFrame(buf[:0], rec)
		if _, err := tmp.Write(buf); err != nil {
			return fail(err)
		}
		snapBytes += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact: %w", err)
	}
	snapPath := filepath.Join(st.dir, genFile(snapPrefix, next))
	if err := os.Rename(tmpName, snapPath); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact: %w", err)
	}
	syncDir(st.dir) // the rename is the commit point

	newLog, err := OpenLog(filepath.Join(st.dir, genFile(walPrefix, next)), nil)
	if err != nil {
		return err
	}
	newLog.metrics = st.metrics // instruments outlive the log swap
	syncDir(st.dir)
	if m := st.metrics; m != nil {
		m.Compactions.Inc()
		m.SnapshotBytes.Set(snapBytes)
	}

	// The new generation is authoritative; retire the old one. Best
	// effort: leftovers are swept by the next Open.
	old := st.log
	os.Remove(filepath.Join(st.dir, genFile(walPrefix, st.gen)))
	os.Remove(filepath.Join(st.dir, genFile(snapPrefix, st.gen)))
	syncDir(st.dir)
	st.mu.Lock()
	st.log, st.gen, st.base = newLog, next, st.durable
	st.mu.Unlock()
	return old.Close()
}

// Close flushes buffered records (unless the store is dead) and closes
// the current log.
func (st *Store) Close() error {
	st.flush.Lock()
	defer st.flush.Unlock()
	var err error
	if !st.Dead() {
		err = st.flushLocked()
	}
	return errors.Join(err, st.log.Close())
}
