package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func collect(t *testing.T, recs *[][]byte) func([]byte) error {
	t.Helper()
	return func(rec []byte) error {
		*recs = append(*recs, append([]byte(nil), rec...))
		return nil
	}
}

func rec(i int) []byte { return []byte(fmt.Sprintf("record-%03d-%s", i, "payload")) }

func allZero(b []byte) bool { return !slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) }

// commit makes recs durable on l in one flush, the way Store.Sync hands
// its buffered frames to the log.
func commit(l *Log, recs ...[]byte) error {
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	return l.write(buf)
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(i))
	}
	if err := commit(l, recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	l2, err := OpenLog(path, collect(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, r := range got {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d: got %q", i, r)
		}
	}
	want := int64(0)
	for i := 0; i < 10; i++ {
		want += FrameSize(len(rec(i)))
	}
	if l2.Size() != want {
		t.Fatalf("size %d, want %d", l2.Size(), want)
	}
}

// TestLogCloseFlushes: a graceful Close makes unsynced appends durable.
func TestLogCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	st, _ := openCollect(t, dir)
	st.Append(rec(0))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, got := openCollect(t, dir)
	st2.Close()
	if len(got) != 1 {
		t.Fatalf("replayed %d records after graceful close, want 1", len(got))
	}
}

// TestTornTailEveryOffset is the core recovery property: truncate a
// well-formed log at every possible byte offset — every kill -9 point —
// and recovery must yield exactly the records whose frames fit in the
// prefix, then accept appends on the repaired log.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	l, err := OpenLog(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var recs [][]byte
	var ends []int64 // cumulative frame end offsets
	off := int64(0)
	for i := 0; i < n; i++ {
		recs = append(recs, rec(i))
		off += FrameSize(len(rec(i)))
		ends = append(ends, off)
	}
	if err := commit(l, recs...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(0); cut <= int64(len(raw)); cut++ {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs := 0
		for _, e := range ends {
			if e <= cut {
				wantRecs++
			}
		}
		var got [][]byte
		l, err := OpenLog(path, collect(t, &got))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != wantRecs {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantRecs)
		}
		// The repaired log must accept appends and replay them.
		if err := commit(l, []byte("after-crash")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		l.Close()
		got = nil
		l2, err := OpenLog(path, collect(t, &got))
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		l2.Close()
		if len(got) != wantRecs+1 || !bytes.Equal(got[len(got)-1], []byte("after-crash")) {
			t.Fatalf("cut %d: after repair got %d records", cut, len(got))
		}
	}
}

// TestCorruptFrameStopsReplay: a bit flip in a middle record truncates
// recovery at the corruption point (the frames after it are
// unreachable), and the repaired log is again well-formed.
func TestCorruptFrameStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(l, rec(0), rec(1), rec(2), rec(3)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	raw, _ := os.ReadFile(path)
	raw[FrameSize(len(rec(0)))+frameHeaderSize+2] ^= 0xff // corrupt record 1's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	l2, err := OpenLog(path, collect(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != 1 || !bytes.Equal(got[0], rec(0)) {
		t.Fatalf("recovered %d records past corruption, want 1", len(got))
	}
}

// TestFailPoint: an armed crash point tears the flush mid-frame; the
// log is dead afterwards, and recovery sees only complete frames below
// the cut.
func TestFailPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(l, rec(0)); err != nil {
		t.Fatal(err)
	}
	first := l.Size()

	// Cut 3 bytes into the second record's frame.
	l.FailAt(first + 3)
	if err := commit(l, rec(1)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync past fail point: %v, want ErrCrashed", err)
	}
	if !l.Dead() {
		t.Fatal("log not dead after crash")
	}
	if err := commit(l, rec(2)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync on dead log: %v, want ErrCrashed", err)
	}
	l.Close()

	// The file is the log up to the cut, then the zeros a commit
	// overwrites.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := appendFrame(appendFrame(nil, rec(0)), rec(1))[:first+3]
	if int64(len(raw)) < first+3 || !bytes.Equal(raw[:first+3], want) || !allZero(raw[first+3:]) {
		t.Fatalf("file after crash at %d is not the log's first %d bytes then zeros", first+3, first+3)
	}
	var got [][]byte
	l2, err := OpenLog(path, collect(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != 1 || !bytes.Equal(got[0], rec(0)) {
		t.Fatalf("recovered %d records, want only the synced one", len(got))
	}
}

func openCollect(t *testing.T, dir string) (*Store, [][]byte) {
	t.Helper()
	var got [][]byte
	st, err := Open(dir, collect(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	return st, got
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, got := openCollect(t, dir)
	if len(got) != 0 {
		t.Fatalf("fresh store replayed %d records", len(got))
	}
	for i := 0; i < 5; i++ {
		st.Append(rec(i))
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Compact to a two-record snapshot (as if the five mutations folded
	// down to two live state items).
	if err := st.Compact([][]byte{[]byte("state-a"), []byte("state-b")}); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 2 {
		t.Fatalf("generation %d after compact, want 2", st.Generation())
	}
	st.Append([]byte("post-compact"))
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, got := openCollect(t, dir)
	st2.Close()
	want := [][]byte{[]byte("state-a"), []byte("state-b"), []byte("post-compact")}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q, want %q", i, got[i], want[i])
		}
	}
	// Old generation files are gone.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), walPrefix); ok && g != 2 {
			t.Fatalf("stale log generation %d left behind", g)
		}
		if g, ok := parseGen(e.Name(), snapPrefix); ok && g != 2 {
			t.Fatalf("stale snapshot generation %d left behind", g)
		}
	}
}

// TestStoreCrashWindows exercises the interrupted-compaction states
// Open must repair: a leftover tmp snapshot, a renamed snapshot with no
// log yet, and undeleted older-generation files.
func TestStoreCrashWindows(t *testing.T) {
	t.Run("tmp snapshot ignored", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openCollect(t, dir)
		st.Append(rec(0))
		st.Sync()
		st.Close()
		// Crash mid-snapshot-write: a torn tmp file remains.
		if err := os.WriteFile(filepath.Join(dir, "snap-garbage.tmp"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, got := openCollect(t, dir)
		st2.Close()
		if len(got) != 1 {
			t.Fatalf("replayed %d records, want 1", len(got))
		}
		if _, err := os.Stat(filepath.Join(dir, "snap-garbage.tmp")); !os.IsNotExist(err) {
			t.Fatal("tmp dropping not swept")
		}
	})

	t.Run("snapshot renamed, log missing, old gen alive", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openCollect(t, dir)
		st.Append(rec(0))
		st.Sync()
		st.Close()
		// Simulate the crash window after the gen-2 snapshot rename but
		// before wal-2 exists and before gen-1 files were removed.
		var buf []byte
		buf = appendFrame(buf, []byte("compacted-state"))
		if err := os.WriteFile(filepath.Join(dir, genFile(snapPrefix, 2)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, got := openCollect(t, dir)
		defer st2.Close()
		if st2.Generation() != 2 {
			t.Fatalf("generation %d, want 2", st2.Generation())
		}
		if len(got) != 1 || !bytes.Equal(got[0], []byte("compacted-state")) {
			t.Fatalf("replayed %q, want the snapshot only", got)
		}
		if _, err := os.Stat(filepath.Join(dir, genFile(walPrefix, 1))); !os.IsNotExist(err) {
			t.Fatal("stale generation-1 log not swept")
		}
	})
}

// TestStoreFailPointTornCommit drives the full crash-and-recover loop
// through the Store API at every mid-frame offset of the second
// commit: the crash must always tear that commit away, never the
// already-synced first one.
func TestStoreFailPointTornCommit(t *testing.T) {
	frame0 := FrameSize(len(rec(0)))
	frame1 := FrameSize(len(rec(1)))
	for cut := int64(0); cut < frame1; cut++ {
		dir := t.TempDir()
		st, _ := openCollect(t, dir)
		st.Append(rec(0))
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		st.FailAt(frame0 + cut)
		st.Append(rec(1))
		if err := st.Sync(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cut %d: %v, want ErrCrashed", cut, err)
		}
		st.Close()

		st2, got := openCollect(t, dir)
		st2.Close()
		if len(got) != 1 || !bytes.Equal(got[0], rec(0)) {
			t.Fatalf("cut %d: recovered %d records, want exactly the synced one", cut, len(got))
		}
	}
}
