package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cloudsync/internal/obs"
)

// TestZeroFilledTailEveryOffset: a log killed between small commits is
// its frames, then zeros. The second commit zero-fills, the later ones
// overwrite zeros instead of growing the file; the file replays to
// exactly the frames; and a cut at every offset through the frames and
// into the zeros recovers the frames that fit, then takes appends
// again.
func TestZeroFilledTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	l, err := OpenLog(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var ends []int64
	for i := 0; i < n; i++ {
		if err := commit(l, rec(i)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
		fi, err := os.Stat(full)
		if err != nil {
			t.Fatal(err)
		}
		want := ends[0]
		if i > 0 {
			want = ends[1] + minZeroFill
		}
		if fi.Size() != want {
			t.Fatalf("after commit %d the file is %d bytes, want %d", i, fi.Size(), want)
		}
	}
	raw, err := os.ReadFile(full) // what kill -9 leaves now
	if err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	if !allZero(raw[size:]) {
		t.Fatal("bytes after the last frame are not zero")
	}
	var got [][]byte
	if _, err := replayFrames(bytes.NewReader(raw), collect(t, &got)); err != nil || len(got) != n {
		t.Fatalf("zero-filled log replays %d records (%v), want %d", len(got), err, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(full); err != nil || fi.Size() != size {
		t.Fatalf("closed log: %v, %v; want exactly its %d frame bytes", fi, err, size)
	}

	cuts := []int64{int64(len(raw))}
	for cut := int64(0); cut <= size+2*frameHeaderSize; cut++ {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs, wantSize := 0, int64(0)
		for _, e := range ends {
			if e <= cut {
				wantRecs, wantSize = wantRecs+1, e
			}
		}
		got = nil
		l, err := OpenLog(path, collect(t, &got))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != wantRecs || l.Size() != wantSize {
			t.Fatalf("cut %d: recovered %d records, %d bytes; want %d, %d", cut, len(got), l.Size(), wantRecs, wantSize)
		}
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

// TestZeroFillGrowsWithLog: a write of 64 KiB or more appends as it
// is. Along a run of smaller ones, the second zero-fills 64 KiB after
// itself and each later one that passes the zeros twice the previous
// extent, up to 4 MiB; a large write ends the run. ZeroBytes counts
// every zero written.
func TestZeroFillGrowsWithLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.metrics = &Metrics{ZeroBytes: obs.NewRegistry().Counter("zero_bytes", "")}
	file := int64(0)
	// step commits one record of payload bytes and checks that it wrote
	// zeros new zeros after itself.
	step := func(payload, zeros int64) {
		t.Helper()
		before := l.metrics.ZeroBytes.Value()
		if err := commit(l, make([]byte, payload)); err != nil {
			t.Fatal(err)
		}
		file = max(file, l.Size()+zeros)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.metrics.ZeroBytes.Value() - before; fi.Size() != file || got != zeros {
			t.Fatalf("after a %d B record the file is %d bytes with %d new zeros, want %d and %d", payload, fi.Size(), got, file, zeros)
		}
	}
	step(100, 0) // a run's first write appends
	step(100, minZeroFill)
	step(minZeroFill/2, 0) // lands inside the zeros
	step(minZeroFill/2, 2*minZeroFill)
	step(1<<20, 0) // a large write passes them, appends, and ends the run
	step(100, 0)
	step(100, minZeroFill)
	for extent := int64(2 * minZeroFill); extent <= 2*maxZeroFill; extent *= 2 {
		// Overwrite zeros until fewer than 32 KiB are left, then pass them.
		for l.zeroed-l.size >= minZeroFill/2 {
			step(minZeroFill/2-frameHeaderSize, 0)
		}
		step(l.zeroed-l.size, min(extent, maxZeroFill))
	}
}

// commitRun is one concurrent run: workers goroutines, each appending
// and committing per records, the way the server does — Append under
// the caller's own lock, Sync outside it.
type commitRun struct {
	st      *Store
	mu      sync.Mutex // the caller's state lock
	order   [][]byte   // every record, in append order
	acked   [][]byte   // records whose commit returned nil
	crashed int        // commits that returned ErrCrashed
}

func (r *commitRun) run(t *testing.T, workers, per int, compactEvery int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := []byte(fmt.Sprintf("w%d-%03d", w, i))
				r.mu.Lock()
				r.st.Append(rec)
				r.order = append(r.order, rec)
				r.mu.Unlock()
				deadBefore := r.st.Dead()
				err := r.st.Sync()
				r.mu.Lock()
				switch {
				case err == nil && !deadBefore:
					r.acked = append(r.acked, rec)
				case errors.Is(err, ErrCrashed):
					r.crashed++
				default:
					t.Errorf("worker %d commit %d: %v (store dead before: %v)", w, i, err, deadBefore)
				}
				if compactEvery > 0 && w == 0 && i%compactEvery == compactEvery-1 {
					// The whole state so far, as the snapshot's records.
					if err := r.st.Compact(r.order); err != nil {
						t.Errorf("compact: %v", err)
					}
				}
				r.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// copyDir copies a state directory's files as they are on disk — what a
// kill -9 of the process leaves.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestStoreConcurrentCommits: eight goroutines append and commit at
// once, with compactions between their commits. Killed right after,
// the state directory replays every record, in append order; and the
// flushes grouped commits (no more fsyncs than commits).
func TestStoreConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	st, _ := openCollect(t, dir)
	reg := obs.NewRegistry()
	m := &Metrics{
		Fsyncs:       reg.Counter("fsyncs", ""),
		CommitWaitUS: reg.Histogram("commit_wait_us", ""),
		Compactions:  reg.Counter("compactions", ""),
	}
	st.SetMetrics(m)
	const workers, per = 8, 40
	r := &commitRun{st: st}
	r.run(t, workers, per, 10)

	if len(r.acked) != workers*per || r.crashed != 0 {
		t.Fatalf("%d commits returned nil and %d crashed, want %d and 0", len(r.acked), r.crashed, workers*per)
	}
	killed, got := openCollect(t, copyDir(t, dir))
	killed.Close()
	if len(got) != len(r.order) {
		t.Fatalf("replayed %d records, want %d", len(got), len(r.order))
	}
	for i := range got {
		if !bytes.Equal(got[i], r.order[i]) {
			t.Fatalf("record %d replayed as %q, appended as %q", i, got[i], r.order[i])
		}
	}
	c, f := m.CommitWaitUS.Count(), m.Fsyncs.Value()
	if c != workers*per || f > c || f == 0 || m.Compactions.Value() != per/10 {
		t.Fatalf("%d commits, %d fsyncs, %d compactions", c, f, m.Compactions.Value())
	}
	t.Logf("%d commits in %d fsyncs", c, f)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentCommitsCrash: the same run with a crash point
// armed at a seeded offset of the log. No commit that returned nil is
// lost, recovery replays a prefix of the append order, and every commit
// begun after the death returns ErrCrashed.
func TestStoreConcurrentCommitsCrash(t *testing.T) {
	const workers, per = 8, 20
	total := int64(workers*per) * FrameSize(len("w0-000"))
	for seed := uint64(1); seed <= 24; seed++ {
		dir := t.TempDir()
		st, _ := openCollect(t, dir)
		off := 1 + rand.New(rand.NewPCG(seed, 0)).Int64N(total-1)
		st.FailAt(off)
		r := &commitRun{st: st}
		r.run(t, workers, per, 0)
		if !st.Dead() || r.crashed == 0 {
			t.Fatalf("seed %d: crash at %d of %d did not trip", seed, off, total)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("seed %d: closing a dead store: %v", seed, err)
		}
		reopened, got := openCollect(t, dir)
		reopened.Close()
		if len(got) > len(r.order) {
			t.Fatalf("seed %d: replayed %d records of %d appended", seed, len(got), len(r.order))
		}
		replayed := map[string]bool{}
		for i, g := range got {
			if !bytes.Equal(g, r.order[i]) {
				t.Fatalf("seed %d: record %d replayed as %q, appended as %q", seed, i, g, r.order[i])
			}
			replayed[string(g)] = true
		}
		for _, a := range r.acked {
			if !replayed[string(a)] {
				t.Fatalf("seed %d (crash at %d): committed record %q lost", seed, off, a)
			}
		}
		if int64(len(got))*FrameSize(len("w0-000")) > off {
			t.Fatalf("seed %d: %d records replayed past the crash at %d", seed, len(got), off)
		}
	}
}
