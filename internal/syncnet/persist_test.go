package syncnet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/obs"
	"cloudsync/internal/store/wal"
)

// reopenSnapshot recovers the state directory into a fresh server and
// returns its view of one user, plus the server for further probing.
func reopenServer(t *testing.T, dir string) *Server {
	t.Helper()
	srv, err := OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func sameSnapshot(t *testing.T, label string, want, got map[string]FileState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files after recovery, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: file %q lost in recovery", label, name)
		}
		if !sameFile(g, true, w, true) {
			t.Fatalf("%s: %q recovered as %+v, want %+v", label, name, g, w)
		}
	}
}

// TestDurableRoundTrip: every acknowledged mutation — uploads,
// overwrite, cross-file dedup, delete — survives a close-and-reopen of
// the state directory with identical content, version, history, and
// file identity.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: dir})
	alice, _ := dial("alice")
	bob, _ := dial("bob")

	a1 := content.Text(20_000, 1).Bytes()
	a2 := content.Text(24_000, 2).Bytes()
	if _, err := alice.Upload("docs/a.txt", a1); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Upload("docs/b.txt", content.Random(4_000, 3).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Upload("docs/a.txt", a2); err != nil { // delta path
		t.Fatal(err)
	}
	if _, err := bob.Upload("docs/a.txt", a1); err != nil { // shared content blob
		t.Fatal(err)
	}
	if err := alice.Delete("docs/b.txt"); err != nil {
		t.Fatal(err)
	}

	wantAlice := srv.Snapshot("alice")
	wantBob := srv.Snapshot("bob")
	wantStored := srv.Stats().BytesStored
	alice.Close()
	bob.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := reopenServer(t, dir)
	sameSnapshot(t, "alice", wantAlice, srv2.Snapshot("alice"))
	sameSnapshot(t, "bob", wantBob, srv2.Snapshot("bob"))
	if got := srv2.Stats().BytesStored; got != wantStored {
		t.Fatalf("BytesStored %d after recovery, want %d", got, wantStored)
	}
}

// TestBytesStoredAfterReopen: content replayed at open counts in the
// syncd_bytes_stored gauge, which is the number Stats reports — one
// copy, so the live metric and Stats cannot drift apart.
func TestBytesStoredAfterReopen(t *testing.T) {
	dir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: dir, Metrics: obs.NewRegistry()})
	c, _ := dial("alice")
	if _, err := c.Upload("a", content.Random(20_000, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("b", []byte("small")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv2, err := OpenServer(ServerConfig{StateDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	gauge := reg.Gauge("syncd_bytes_stored", "").Value()
	if stored := srv2.Stats().BytesStored; gauge != stored || stored != 20_000+5 {
		t.Fatalf("after reopen: syncd_bytes_stored %d, Stats().BytesStored %d, want both %d", gauge, stored, 20_000+5)
	}
}

// TestServerTornTailEveryOffset is the kill -9 property over the whole
// log: truncated at every byte, the state directory must reopen without
// error. A cut at an acknowledged commit's end recovers exactly the
// state at that ack; a cut inside a commit recovers no torn file and not
// the whole commit.
func TestServerTornTailEveryOffset(t *testing.T) {
	seedDir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: seedDir})
	// A 512 B block size lets a 2 KiB file take the delta path while the
	// log stays a few KiB, so the every-offset loop runs quickly.
	c, _ := dial("alice", WithBlockSize(512))

	type checkpoint struct {
		bytes int64
		state map[string]FileState
	}
	ckpts := []checkpoint{{0, srv.Snapshot("alice")}}
	acked := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, checkpoint{srv.StateLogBytes(), srv.Snapshot("alice")})
	}
	big := content.Random(2_048, 1).Bytes()
	_, err := c.Upload("inline", []byte("rides in a one-entry bundle"))
	acked(err)
	_, err = c.UploadBundle([]FileUpload{{"b1", []byte("first")}, {"b2", []byte("second")}})
	acked(err)
	_, err = c.Upload("big", big)
	acked(err)
	edited := append([]byte(nil), big...)
	copy(edited[1_000:], "edit")
	st, err := c.Upload("big", edited)
	if err == nil && !st.DeltaSync {
		t.Fatal("edit of big did not take the delta path")
	}
	acked(err)
	acked(c.Delete("inline"))
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(seedDir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if last := ckpts[len(ckpts)-1].bytes; int64(len(raw)) != last {
		t.Fatalf("log is %d bytes, last checkpoint %d", len(raw), last)
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := OpenServer(ServerConfig{StateDir: dir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := rs.Snapshot("alice")
		rs.Close()

		i := 0
		for i+1 < len(ckpts) && ckpts[i+1].bytes <= int64(cut) {
			i++
		}
		label := fmt.Sprintf("cut %d", cut)
		if ckpts[i].bytes == int64(cut) {
			sameSnapshot(t, label, ckpts[i].state, got)
			continue
		}
		// Inside one group commit: its whole-record prefix replays, so a
		// bundle may land in part, but every file is at its state before
		// or after the commit, and the commit as a whole is not visible
		// until its last byte is.
		prev, next := ckpts[i].state, ckpts[i+1].state
		whole := true
		for _, snap := range []map[string]FileState{got, prev, next} {
			for name := range snap {
				g, gok := got[name]
				p, pok := prev[name]
				n, nok := next[name]
				atNext := sameFile(g, gok, n, nok)
				if !atNext && !sameFile(g, gok, p, pok) {
					t.Fatalf("%s: %q recovered as %+v, neither before (%+v) nor after (%+v) its commit", label, name, g, p, n)
				}
				whole = whole && atNext
			}
		}
		if whole {
			t.Fatalf("%s: the commit ending at byte %d is visible before its last byte", label, ckpts[i+1].bytes)
		}
	}
}

// sameFile reports whether two optional file states are the same.
func sameFile(a FileState, aok bool, b FileState, bok bool) bool {
	return aok == bok && a.ID == b.ID && a.Version == b.Version &&
		a.Deleted == b.Deleted && a.History == b.History && bytes.Equal(a.Data, b.Data)
}

// TestDurableCompaction: state folded into a snapshot plus records
// appended after it replay to the same state, and the fold is
// triggered both explicitly and by the log-size threshold.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold so ordinary traffic crosses it: every commit's
	// group commit also compacts, exercising snapshot-over-snapshot.
	srv, dial := startServer(t, ServerConfig{StateDir: dir, CompactLogBytes: 1024})
	c, _ := dial("alice")

	if _, err := c.Upload("a", content.Random(8_000, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("b", content.Random(8_000, 2).Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := srv.CompactState(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("c", content.Random(8_000, 3).Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}

	want := srv.Snapshot("alice")
	c.Close()
	srv.Close()

	srv2 := reopenServer(t, dir)
	sameSnapshot(t, "alice", want, srv2.Snapshot("alice"))

	// Recovered dedup index still answers: re-uploading b's bytes under
	// a new name must dedup-skip (no payload transfer).
	// (Server-internal check: the content blob is still addressable.)
	if _, ok := srv2.FileContent("alice", "b"); !ok {
		t.Fatal("content lost across compaction")
	}
}

// TestCrashMidCommit arms a crash point just past the durable prefix:
// the commit that trips it must NOT be acknowledged, the server must
// refuse all further work, and recovery must surface exactly the
// acknowledged state.
func TestCrashMidCommit(t *testing.T) {
	dir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: dir})
	c, _ := dial("alice")

	if _, err := c.Upload("safe", content.Text(10_000, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	want := srv.Snapshot("alice")

	srv.FailStateAt(srv.StateLogBytes() + 3) // tear the next commit's frame
	if _, err := c.Upload("doomed", content.Text(10_000, 2).Bytes()); err == nil {
		t.Fatal("upload acknowledged past an armed crash point")
	}
	if !srv.Crashed() {
		t.Fatal("server not crashed after torn group commit")
	}
	select {
	case <-srv.CrashedC():
	default:
		t.Fatal("CrashedC not closed")
	}
	// A crashed server refuses everything, like a killed process.
	if _, err := c.Upload("more", []byte("x")); err == nil {
		t.Fatal("crashed server accepted work")
	}
	c.Close()
	srv.Close()

	srv2 := reopenServer(t, dir)
	got := srv2.Snapshot("alice")
	if _, ok := got["doomed"]; ok {
		t.Fatal("unacknowledged commit resurrected by recovery")
	}
	sameSnapshot(t, "alice", want, got)
}

// TestArmCrash: the fault scheduler draws seeded crash offsets within
// the documented window and counts them.
func TestArmCrash(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(ServerConfig{StateDir: dir})
	defer srv.Close()

	fs := NewFaultScheduler(FaultPlan{Seed: 7, MeanCrashBytes: 1000})
	off := fs.ArmCrash(srv)
	if off < 500 || off >= 1500 {
		t.Fatalf("crash offset %d outside [mean/2, 3·mean/2)", off)
	}
	if fs.Stats().Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", fs.Stats().Crashes)
	}
	if got := NewFaultScheduler(FaultPlan{Seed: 7}).ArmCrash(srv); got != -1 {
		t.Fatalf("inert plan armed offset %d", got)
	}
	// Same seed, same sequence.
	if again := NewFaultScheduler(FaultPlan{Seed: 7, MeanCrashBytes: 1000}).ArmCrash(srv); again != off {
		t.Fatalf("seeded offsets diverge: %d vs %d", again, off)
	}
}

// TestRecoveryRejectsForeignRecords: a record the codec does not know
// (a frame with a valid CRC but garbage payload) aborts Open loudly
// instead of silently dropping state.
func TestRecoveryRejectsForeignRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Append([]byte{99, 1, 2, 3})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if _, err := OpenServer(ServerConfig{StateDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "unknown state record") {
		t.Fatalf("OpenServer on foreign records: %v, want unknown-record error", err)
	}
}
