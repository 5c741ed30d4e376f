// Package wal is the durability substrate behind the live sync server
// (internal/syncnet): an append-only record log with CRC-framed,
// length-prefixed records and batched fsync, plus generational
// compacting snapshots, managed together as one state directory.
//
// The contract is crash-safety under kill -9 at any byte: a record is
// durable once a Store.Sync has returned, a torn tail (a frame cut
// mid-write by a crash) is detected by its CRC or short length and
// discarded on the next Open, and a snapshot becomes the recovery base
// only via an atomic rename after its bytes are fsynced. Recovery
// therefore always reconstructs exactly the state as of the last
// completed flush — never a torn or interleaved hybrid.
// docs/DURABILITY.md specifies the frame layout, the zero-filled tail,
// the generation scheme, and the compaction policy; the crash-point
// property harness in internal/invariant drives kill -9-equivalent cuts
// through this package at seeded offsets.
//
// The package is deliberately value-free about record contents: the
// caller defines its own record codec and replay function.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"cloudsync/internal/obs"
)

// Metrics is the optional instrument set a Log (and the Store above
// it) reports into: the group-commit fsync cost, durable byte volume,
// and compaction activity. All fields are nil-safe obs instruments, so
// a partially populated set works; a nil *Metrics disables metering
// entirely (the historical zero-overhead behaviour).
type Metrics struct {
	// FsyncUS times each group commit (buffered write + fsync), in
	// microseconds.
	FsyncUS *obs.Histogram
	// Fsyncs counts group commits performed.
	Fsyncs *obs.Counter
	// BytesAppended counts framed record bytes made durable.
	BytesAppended *obs.Counter
	// ZeroBytes counts the zeros written ahead of the last frame (see
	// Log); over BytesAppended it is the zero-fill's write overhead.
	ZeroBytes *obs.Counter
	// CommitWaitUS times each successful Store.Sync, in microseconds:
	// the wait for the flush that covers the caller's records. Its
	// count over Fsyncs is the group-commit factor.
	CommitWaitUS *obs.Histogram
	// Compactions counts log-into-snapshot compactions completed.
	Compactions *obs.Counter
	// SnapshotBytes holds the current generation's snapshot size.
	SnapshotBytes *obs.Gauge
}

// ErrCrashed is returned by every operation on a log whose injected
// crash point has tripped (and by all operations after a real I/O
// failure): the store behaves exactly as if the process had been
// killed — nothing more reaches the disk.
var ErrCrashed = errors.New("wal: store crashed")

// frameHeaderSize is the per-record framing overhead: a little-endian
// uint32 payload length followed by a little-endian uint32 CRC-32C
// covering the length bytes and the payload.
const frameHeaderSize = 8

// maxRecordSize bounds a single record; a length field beyond it is
// treated as a torn or corrupt tail, not an allocation request.
const maxRecordSize = 1 << 30

// castagnoli is the CRC-32C table (the iSCSI polynomial, hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one append-only record log file: write makes a buffer of
// frames durable after the last frame with one fsync. Along a run of
// small writes the file keeps durable zeros ahead of its last frame, so
// the next small commits overwrite blocks that are already allocated
// instead of growing the file. A Log is not safe for concurrent use;
// Store buffers the frames and is the concurrent front end.
type Log struct {
	f      *os.File
	path   string
	size   int64 // bytes of complete, flushed frames in the file
	zeroed int64 // the file's bytes [size, zeroed) are durable zeros
	fill   int64 // the next zero-fill's extent; 0 outside a run of small writes

	// failAt, when ≥ 0, is the injected crash point: an absolute file
	// offset beyond which no byte may reach the disk. The flush that
	// would cross it writes only the allowed prefix — a torn frame,
	// exactly what kill -9 mid-write leaves — and the log is dead from
	// then on.
	failAt int64
	dead   bool
	// stall, when non-nil, holds the next flush between its write and
	// its fsync (Store.StallSync).
	stall *stall

	// metrics, when non-nil, receives fsync timings and durable byte
	// counts (Store.SetMetrics installs it and keeps it across
	// compaction's log swap).
	metrics *Metrics
}

// A write of minZeroFill or more appends as it is: its fsync is mostly
// its data. A smaller one's is mostly the metadata of growing the file,
// so along a run of small writes the log writes zeros for the next ones
// to overwrite: the run's second write zero-fills minZeroFill bytes
// after itself, and each later one that passes the zeros twice the
// previous extent, up to maxZeroFill. A large write ends the run, so a
// run writes at most twice its own bytes plus minZeroFill of zeros.
const (
	minZeroFill = 64 << 10
	maxZeroFill = 4 << 20
)

var zeros [minZeroFill]byte

// stall is an armed fsync stall: held closes when a flush reaches it,
// which then waits for release to close.
type stall struct {
	held    chan struct{}
	release <-chan struct{}
}

// appendFrame appends one framed record to buf.
func appendFrame(buf, rec []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	crc := crc32.Update(0, castagnoli, hdr[0:4])
	crc = crc32.Update(crc, castagnoli, rec)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, rec...)
}

// FrameSize reports the on-disk bytes one record of n payload bytes
// occupies — callers use it to reason about compaction thresholds and
// the crash harness uses it to aim cuts at specific commits.
func FrameSize(n int) int64 { return frameHeaderSize + int64(n) }

// OpenLog opens (creating if needed) the log at path, replays every
// complete record through fn in append order, truncates any torn tail
// (and any zeros after it), and leaves the log ready for appending. fn
// must not retain rec.
func OpenLog(path string, fn func(rec []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	valid, err := replayFrames(f, fn)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Repair: drop the torn tail so appends extend a well-formed log.
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return &Log{f: f, path: path, size: valid, zeroed: valid, failAt: -1}, nil
}

// replayFrames scans complete frames from r, calling fn for each, and
// returns the offset of the first byte past the last complete frame.
// A short header, short payload, oversized length, or CRC mismatch all
// mark the torn tail: replay stops there without error — that is the
// crash-recovery contract, not a failure. Only fn's own error (a
// corrupt record *payload* by the caller's standards) aborts the open.
func replayFrames(r io.Reader, fn func(rec []byte) error) (int64, error) {
	br := newByteCounter(r)
	var hdr [frameHeaderSize]byte
	var rec []byte
	valid := int64(0)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return valid, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordSize {
			return valid, nil // garbage length: torn tail
		}
		if cap(rec) < int(length) {
			rec = make([]byte, length)
		}
		rec = rec[:length]
		if _, err := io.ReadFull(br, rec); err != nil {
			return valid, nil // torn payload
		}
		crc := crc32.Update(0, castagnoli, hdr[0:4])
		if crc32.Update(crc, castagnoli, rec) != want {
			return valid, nil // corrupt or torn frame
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return valid, fmt.Errorf("wal: replaying record at %d: %w", valid, err)
			}
		}
		valid = br.n
	}
}

// byteCounter counts consumed bytes so replay knows frame boundaries.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// Size reports the flushed (complete-frame) byte size of the log file.
func (l *Log) Size() int64 { return l.size }

// write makes buf — whole frames — durable after the log's last frame,
// with one fsync: the group commit. When a small buf inside a run of
// small ones passes the zeros, a fresh extent of zeros is written after
// it, under the same fsync. If a crash point trips mid-flush, the allowed
// prefix reaches the file (torn), ErrCrashed is returned, and every
// later write fails the same way.
func (l *Log) write(buf []byte) error {
	if l.dead {
		return ErrCrashed
	}
	if len(buf) == 0 {
		return nil
	}
	var t0 time.Time
	if l.metrics != nil {
		t0 = time.Now()
	}
	end := l.size + int64(len(buf))
	if l.failAt >= 0 && end > l.failAt {
		if allowed := l.failAt - l.size; allowed > 0 {
			// The kernel got the prefix; whether it hit the platter is
			// moot — recovery must tolerate the torn frame either way.
			l.f.WriteAt(buf[:allowed], l.size)
			l.f.Sync()
		}
		l.dead = true
		return ErrCrashed
	}
	if len(buf) >= minZeroFill {
		l.fill = 0
	} else if end > l.zeroed {
		if l.fill > 0 {
			if err := l.zeroFill(end, end+l.fill); err != nil {
				l.dead = true
				return fmt.Errorf("wal: zero-fill: %w", err)
			}
		}
		l.fill = min(max(2*l.fill, minZeroFill), maxZeroFill)
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		l.dead = true
		return fmt.Errorf("wal: append: %w", err)
	}
	if s := l.stall; s != nil {
		l.stall = nil
		close(s.held)
		<-s.release
	}
	if err := l.f.Sync(); err != nil {
		l.dead = true
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.size = end
	if m := l.metrics; m != nil {
		m.Fsyncs.Inc()
		m.BytesAppended.Add(int64(len(buf)))
		m.FsyncUS.Observe(time.Since(t0).Microseconds())
	}
	return nil
}

// zeroFill writes zeros over the file's bytes [from, to) and records
// to as the zero-filled extent's end; the caller's fsync makes them
// durable.
func (l *Log) zeroFill(from, to int64) error {
	for off := from; off < to; {
		n, err := l.f.WriteAt(zeros[:min(to-off, int64(len(zeros)))], off)
		if err != nil {
			return err
		}
		off += int64(n)
	}
	l.zeroed = to
	if m := l.metrics; m != nil {
		m.ZeroBytes.Add(to - from)
	}
	return nil
}

// FailAt arms the injected crash point at an absolute file offset
// (-1 disarms). The flush that would carry the file past the offset
// writes only the prefix and kills the log — the in-process equivalent
// of kill -9 at that exact byte of the WAL stream.
func (l *Log) FailAt(offset int64) { l.failAt = offset }

// Dead reports whether the log has crashed (injected or real I/O
// failure). A dead log's file is exactly as a killed process would
// have left it.
func (l *Log) Dead() bool { return l.dead }

// Close cuts the zero-filled extent off (unless the log is dead) and
// closes the file, so a closed log is exactly its frames. A dead log
// closes without touching the file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if !l.dead && l.zeroed > l.size {
		if err = l.f.Truncate(l.size); err != nil {
			err = fmt.Errorf("wal: cutting the zero-filled extent: %w", err)
		}
	}
	err = errors.Join(err, l.f.Close())
	l.f = nil
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Platforms that refuse to fsync directories are tolerated:
// the rename itself is still atomic, only its durability window grows.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
