package syncnet

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/bin"
	"cloudsync/internal/content"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
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

// TestStoredContentKeptOnce: a version whose content the store already
// holds keeps the store's copy, not a second one. A delta that toggles a
// file back to an earlier version and another account's full upload of
// the same bytes (a dedup miss: the index is per account) both leave
// f.data the very blob byHash holds, and syncd_bytes_stored counts
// each distinct blob once.
func TestStoredContentKeptOnce(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{})
	alice, _ := dial("alice")
	bob, _ := dial("bob")
	a := content.Random(64<<10, 1).Bytes()
	b := bytes.Clone(a)
	copy(b[5000:], "edited")
	for _, v := range [][]byte{a, b, a} { // full upload, then two deltas
		if _, err := alice.Upload("f", v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bob.Upload("f", a); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.DeltaSyncs != 2 || st.DedupSkips != 0 {
		t.Fatalf("%d delta syncs and %d dedup skips, want 2 and 0", st.DeltaSyncs, st.DedupSkips)
	}
	if want := int64(len(a) + len(b)); st.BytesStored != want {
		t.Fatalf("BytesStored %d, want %d: each distinct blob once", st.BytesStored, want)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, user := range []string{"alice", "bob"} {
		f := srv.files(user)["f"]
		if !bytes.Equal(f.data.bytes(), a) || f.data != srv.byHash[f.hash] {
			t.Errorf("%s/f holds its own copy of content the store already keeps", user)
		}
	}
}

// TestServerTornTailEveryOffset is the kill -9 property over the whole
// log: truncated at every byte, the state directory must reopen without
// error. A cut at an acknowledged commit's end recovers exactly the
// state at that ack, the whole durable state and not only the files; a
// cut inside a commit recovers no torn file and not the whole commit.
func TestServerTornTailEveryOffset(t *testing.T) {
	seedDir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: seedDir})
	// A 512 B block size lets a 2 KiB file take the delta path while the
	// log stays a few KiB, so the every-offset loop runs quickly.
	c, _ := dial("alice", WithBlockSize(512))

	type checkpoint struct {
		bytes int64
		state map[string]FileState
		dump  string
	}
	ckpts := []checkpoint{{0, srv.Snapshot("alice"), dumpState(srv)}}
	acked := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, checkpoint{srv.StateLogBytes(), srv.Snapshot("alice"), dumpState(srv)})
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
		got, dump := rs.Snapshot("alice"), dumpState(rs)
		rs.Close()

		i := 0
		for i+1 < len(ckpts) && ckpts[i+1].bytes <= int64(cut) {
			i++
		}
		label := fmt.Sprintf("cut %d", cut)
		if ckpts[i].bytes == int64(cut) {
			sameDump(t, label, ckpts[i].dump, dump)
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
	b := content.Random(8_000, 2).Bytes()
	if _, err := c.Upload("b", b); err != nil {
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

	// The recovered dedup index still answers: b's bytes re-uploaded
	// under a new name dedup-skip. At 8 000 bytes they ride an inline
	// bundle, so the payload crosses the wire all the same; the hit
	// shows in the commit, which stores no second copy.
	c2, closeC2 := pipeClient(t, srv2, "alice", "dev2", nil)
	defer closeC2()
	st, err := c2.Upload("b-copy", b)
	if err != nil || !st.DedupHit {
		t.Fatalf("re-upload of b's bytes after reopen: %+v, %v; want a dedup hit", st, err)
	}
	if skips := srv2.Stats().DedupSkips; skips != 1 {
		t.Fatalf("%d dedup skips after reopen, want 1", skips)
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

// TestDataAfterCrashEndsSession: a peer streaming a full upload over a
// synchronous transport (net.Pipe) when another session's commit crashes
// the server must see its writes fail, not block. The streaming peer
// reads nothing before its Commit, so a reply to a Data frame would
// block both ends; the server ends the session instead.
func TestDataAfterCrashEndsSession(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{StateDir: t.TempDir()})
	t.Cleanup(func() { srv.Close() })

	cp, sp := net.Pipe()
	defer cp.Close()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	data := content.Random(64*DataPieceSize, 1).Bytes()
	for _, m := range []protocol.Message{
		&protocol.Hello{User: "alice", Device: "streamer"},
		&protocol.IndexUpdate{Name: "big", Size: int64(len(data)), FileHash: protocol.Sum(data)},
	} {
		if _, err := cp.Write(protocol.Encode(m)); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
	}
	reply, err := protocol.ReadMessage(cp)
	ir, ok := reply.(*protocol.IndexReply)
	if err != nil || !ok || ir.DedupHit {
		t.Fatalf("index reply: %#v, %v", reply, err)
	}

	// Another session's commit trips the crash latch.
	op, osp := net.Pipe()
	otherDone := make(chan error, 1)
	go func() { otherDone <- srv.HandleConn(osp) }()
	other, err := NewClient(op, "bob", "crasher")
	if err != nil {
		t.Fatal(err)
	}
	srv.FailStateAt(srv.StateLogBytes() + 3)
	if _, err := other.Upload("doomed", []byte("x")); err == nil {
		t.Fatal("upload acknowledged past an armed crash point")
	}
	other.Close()
	<-otherDone
	if !srv.Crashed() {
		t.Fatal("server not crashed after torn group commit")
	}

	wrote := make(chan error, 1)
	go func() {
		for off := 0; off < len(data); off += DataPieceSize {
			piece := &protocol.Data{FileID: ir.FileID, Offset: int64(off), Payload: data[off : off+DataPieceSize]}
			if _, err := cp.Write(protocol.Encode(piece)); err != nil {
				wrote <- err
				return
			}
		}
		_, err := cp.Write(protocol.Encode(&protocol.Commit{FileID: ir.FileID}))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("a crashed server read the whole upload")
		}
	case <-time.After(10 * time.Second):
		cp.Close() // unblock both ends so the test can end
		t.Fatal("streaming an upload to a crashed server blocked")
	}
	if err := <-done; !errors.Is(err, ErrServerCrashed) {
		t.Fatalf("streaming session ended with %v, want ErrServerCrashed", err)
	}
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

// TestRecoveryRefusesStaleContentRecords: a state directory written
// under an earlier file identity holds content records of kind 2 (keyed
// by MD5) or kind 4 (keyed by a SHA-256 prefix of the whole file). Open
// refuses either with ErrStaleContentRecord, naming the kind, rather
// than serve files under keys no upload or delta will compute again.
func TestRecoveryRefusesStaleContentRecords(t *testing.T) {
	data := []byte("written under an earlier identity")
	md5Sum, flatSum := md5.Sum(data), sha256.Sum256(data)
	for _, tc := range []struct {
		kind byte
		hash protocol.Fingerprint
	}{
		{recMD5Content, md5Sum},
		{recFlatContent, protocol.Fingerprint(flatSum[:protocol.FingerprintSize])},
	} {
		t.Run(fmt.Sprintf("kind=%d", tc.kind), func(t *testing.T) {
			dir := t.TempDir()
			st, err := wal.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			st.Append(bin.AppendBytes(append([]byte{tc.kind}, tc.hash[:]...), data))
			r := record{kind: recFile, user: "u", name: "a.txt", id: 1, version: 1, history: 1, hash: tc.hash}
			st.Append(r.encode())
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			st.Close()

			srv, err := OpenServer(ServerConfig{StateDir: dir})
			if !errors.Is(err, ErrStaleContentRecord) || !strings.Contains(err.Error(), fmt.Sprintf("(kind %d)", tc.kind)) {
				t.Fatalf("OpenServer on kind-%d content: %v, want ErrStaleContentRecord naming the kind", tc.kind, err)
			}
			if srv != nil {
				_, served := srv.FileContent("u", "a.txt")
				t.Fatalf("OpenServer returned a server (serving a.txt: %v) beside its error", served)
			}
		})
	}
}
