package syncnet

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/obs"
)

// within runs fn and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not answer within %v", what, d)
	}
}

// killCopy copies a live state directory as it is on disk — what kill
// -9 of the server would leave — and reopens a server on the copy.
func killCopy(t *testing.T, dir string) *Server {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := OpenServer(ServerConfig{StateDir: to})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestCommitDoesNotHoldServerLock: while session A's bundle is held in
// its fsync, session B's List, Get and a dedup-probing Upload all
// answer — the durable commit runs outside the server lock. B's ACK
// waits for the flush after A's, since its records follow A's in the
// log, and once it arrives B's upload survives a kill -9.
func TestCommitDoesNotHoldServerLock(t *testing.T) {
	dir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: dir})
	a, _ := dial("alice")
	b, _ := dial("alice")
	if _, err := b.Upload("seen", []byte("committed before the stall")); err != nil {
		t.Fatal(err)
	}
	// Past one delta block, so B's upload of it asks the index first.
	shared := content.Random(16<<10, 1).Bytes()

	release := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unstall) // before the server's Close, which waits on A
	held := srv.persist.StallSync(release)
	aDone := make(chan error, 1)
	go func() {
		_, err := a.UploadBundle([]FileUpload{{"a1", shared}, {"a2", []byte("small")}})
		aDone <- err
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("A's bundle never reached its fsync")
	}

	const wait = 2 * time.Second
	within(t, wait, "B's List during A's fsync", func() error { _, err := b.List(); return err })
	within(t, wait, "B's Get during A's fsync", func() error {
		got, err := b.Download("seen")
		if err == nil && string(got) != "committed before the stall" {
			t.Errorf("Get returned %q", got)
		}
		return err
	})
	bDone := make(chan error, 1)
	go func() {
		st, err := b.Upload("b1", shared)
		if err == nil && !st.DedupHit {
			t.Errorf("B's upload of A's content was not a dedup hit")
		}
		bDone <- err
	}()
	within(t, wait, "B's dedup probe during A's fsync", func() error {
		for srv.Stats().DedupSkips == 0 {
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	select {
	case err := <-bDone:
		t.Fatalf("B acknowledged (%v) while the flush before its own was held", err)
	case <-time.After(100 * time.Millisecond):
	}

	unstall()
	for who, c := range map[string]chan error{"A": aDone, "B": bDone} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatalf("%s after the release: %v", who, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s not acknowledged after the release", who)
		}
	}
	killed := killCopy(t, dir)
	for _, name := range []string{"seen", "a1", "a2", "b1"} {
		if _, ok := killed.FileContent("alice", name); !ok {
			t.Fatalf("acknowledged %s lost in a kill -9 after the ACKs", name)
		}
	}
	if got, _ := killed.FileContent("alice", "b1"); !bytes.Equal(got, shared) {
		t.Fatal("b1 recovered with the wrong content")
	}
}

// TestTwoDevicesHammerOneAccountDurable is the hammer on a durable
// server whose log compacts every few commits, so compaction races the
// commits waiting outside the server lock. Killed after the hammer, the
// state directory holds every name at its last acknowledged version,
// with that version's content.
func TestTwoDevicesHammerOneAccountDurable(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	acked := hammerOneAccount(t, ServerConfig{StateDir: dir, CompactLogBytes: 32 << 10, Metrics: reg})
	if n := reg.Counter("syncd_wal_compactions_total", "").Value(); n < 2 {
		t.Fatalf("%d compactions: the hammer did not race compaction", n)
	}
	killed := killCopy(t, dir)
	snap := killed.Snapshot("alice")
	for name, want := range acked {
		got, ok := snap[name]
		if !ok || got.Version != want.Version || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("%s recovered at v%d, last acknowledged v%d", name, got.Version, want.Version)
		}
	}
	t.Logf("%d commits in %d fsyncs, %d compactions",
		reg.Histogram("syncd_wal_commit_wait_us", "").Count(),
		reg.Counter("syncd_wal_fsyncs_total", "").Value(),
		reg.Counter("syncd_wal_compactions_total", "").Value())
}
