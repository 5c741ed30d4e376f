package watchsync

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/syncnet"
)

// leakCheck fails the test if any goroutine running sync code outlives
// it. Register FIRST: t.Cleanup is LIFO, so the check runs after the
// rig's own teardown has closed clients and server.
func leakCheck(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			leaked := syncGoroutines()
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// syncGoroutines returns the stacks of goroutines currently inside
// syncnet code — server handlers, executor workers mid-transfer.
func syncGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "cloudsync/internal/syncnet") &&
			!strings.Contains(g, "runtime.Stack") {
			out = append(out, g)
		}
	}
	return out
}

// rig is one in-memory watch-mode deployment: a real server, a worker
// pool over net.Pipe connections sharing one client-side ledger, a
// MemSource tree, and the pipeline wiring them together.
type rig struct {
	srv     *syncnet.Server
	srvLed  *ledger.Ledger
	cliLed  *ledger.Ledger
	clients []*syncnet.Client
	src     *MemSource
	pipe    *Pipeline
	closed  bool
}

func newRig(t *testing.T, workers int, cfg Config) *rig {
	t.Helper()
	leakCheck(t)
	r, err := buildRig(workers, cfg, "alice")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.close() })
	if err := r.pipe.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return r
}

func buildRig(workers int, cfg Config, user string) (*rig, error) {
	r := &rig{
		srvLed: ledger.New(),
		cliLed: ledger.New(),
		src:    NewMemSource(),
	}
	r.srv = syncnet.NewServer(syncnet.ServerConfig{Ledger: r.srvLed})
	for i := 0; i < workers; i++ {
		cc, sc := net.Pipe()
		go r.srv.HandleConn(sc)
		c, err := syncnet.NewClient(cc, user, fmt.Sprintf("w%d", i), syncnet.WithLedger(r.cliLed))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	r.pipe = NewPipeline(r.src, NewExecutor(r.clients...), cfg)
	return r, nil
}

// close tears the rig down (idempotent): clients first — sweeping
// ledger residuals — then the server.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, c := range r.clients {
		c.Close()
	}
	r.srv.Close()
}

// wire returns the client-side wire total (both directions, all
// workers).
func (r *rig) wire() int64 {
	var total int64
	for _, c := range r.clients {
		in, out := c.WireTotals()
		total += in + out
	}
	return total
}

// step polls and ticks once at virtual time now.
func (r *rig) step(t *testing.T, now time.Duration) TickStats {
	t.Helper()
	if err := r.pipe.Poll(now); err != nil {
		t.Fatal(err)
	}
	st, _, _, err := r.pipe.Tick(now)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors > 0 {
		t.Fatalf("tick at %v had %d transfer errors", now, st.Errors)
	}
	return st
}

func TestPipelineLifecycle(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	r := newRig(t, 2, Config{BaselinePath: base})

	// a.txt spans several delta blocks: below one block a modify goes
	// inline, as b.txt's would.
	alpha := strings.Repeat("alpha ", 4096)
	r.src.WriteFile("a.txt", []byte(alpha), 0)
	r.src.WriteFile("b.txt", []byte("beta beta beta beta"), 0)
	st := r.step(t, 0)
	if st.Uploads != 2 || st.Deltas != 0 {
		t.Fatalf("initial sync: %+v, want 2 uploads", st)
	}

	// Append to a.txt: must go incremental, not full.
	r.src.WriteFile("a.txt", []byte(alpha+"+ more"), time.Second)
	st = r.step(t, time.Second)
	if st.Deltas != 1 || st.Uploads != 0 {
		t.Fatalf("modify: %+v, want 1 delta", st)
	}

	r.src.RemoveFile("b.txt")
	st = r.step(t, 2*time.Second)
	if st.Deletes != 1 {
		t.Fatalf("remove: %+v, want 1 delete", st)
	}

	snap := r.srv.Snapshot("alice")
	if f, ok := snap["a.txt"]; !ok || string(f.Data) != alpha+"+ more" {
		t.Fatalf("server a.txt = %+v", f)
	}
	if f, ok := snap["b.txt"]; !ok || !f.Deleted {
		t.Fatalf("server b.txt not fake-deleted: %+v", f)
	}

	// A quiet tick plans nothing and stays quiet.
	st = r.step(t, 3*time.Second)
	if st.Planned != 0 {
		t.Fatalf("quiet tick planned %d actions", st.Planned)
	}
	if r.pipe.PendingPaths() != 0 {
		t.Fatalf("%d paths still pending", r.pipe.PendingPaths())
	}

	// The persisted baseline holds exactly the live file.
	loaded, err := LoadBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("baseline = %v, want just a.txt", loaded)
	}
	if m := loaded["a.txt"]; m.Size != int64(len(alpha+"+ more")) {
		t.Fatalf("baseline a.txt = %+v", m)
	}
}

// TestPipelineRestartResumes is the crash-recovery story: a new daemon
// generation loading the persisted baseline must recognize unchanged
// files without re-uploading a byte, and must still be able to delete
// a file only the previous generation ever uploaded.
// TestRepeatEditsAcrossWorkers: each worker client remembers the
// signatures its own uploads and delta syncs ended on, and a file's
// edits land on whichever worker is free. The pool must never pay for a
// stale memory: a worker told about another's sync forgets its own
// signature (it falls back to asking), and the worker that did the sync
// keeps its — so a lone worker sends every edit, the first after the
// full upload included, as a one-round-trip conditional delta, and no
// pool is ever refused one.
func TestRepeatEditsAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 3} {
		r := newRig(t, workers, Config{})
		docs := []string{"a.bin", "b.bin"}
		data := make([][]byte, len(docs))
		for i, name := range docs {
			data[i] = []byte(strings.Repeat(name+" ", 4096))
			r.src.WriteFile(name, data[i], 0)
		}
		r.step(t, 0)
		const rounds = 6
		for round := 1; round <= rounds; round++ {
			now := time.Duration(round) * time.Second
			for i, name := range docs {
				data[i] = append([]byte(nil), data[i]...)
				data[i][100*round] ^= 0xFF
				r.src.WriteFile(name, data[i], now)
			}
			if st := r.step(t, now); st.Deltas != len(docs) {
				t.Fatalf("%d workers, round %d: %+v, want %d deltas", workers, round, st, len(docs))
			}
		}
		ss := r.srv.Stats()
		if ss.CondDeltaConflicts != 0 {
			t.Errorf("%d workers: %d conditional deltas refused inside one executor", workers, ss.CondDeltaConflicts)
		}
		if want := int64(len(docs) * rounds); workers == 1 && ss.DeltaSyncs-ss.SignaturesServed != want {
			t.Errorf("lone worker sent %d deltas without asking for a signature, want %d (every edit)",
				ss.DeltaSyncs-ss.SignaturesServed, want)
		}
		snap := r.srv.Snapshot("alice")
		for i, name := range docs {
			if string(snap[name].Data) != string(data[i]) {
				t.Errorf("%d workers: %s diverged", workers, name)
			}
		}
		r.close()
	}
}

func TestPipelineRestartResumes(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	r := newRig(t, 1, Config{BaselinePath: base})
	content := []byte("generation one content, sizeable enough to notice on the wire")
	r.src.WriteFile("doc.txt", content, 0)
	if st := r.step(t, 0); st.Uploads != 1 {
		t.Fatalf("gen1 sync: %+v", st)
	}
	r2copy := r.src.Files() // the tree survives the "crash"
	for _, c := range r.clients {
		c.Close() // daemon dies; server keeps running
	}

	// Generation two: fresh client (empty ids/known), same server, same
	// baseline file.
	cc, sc := net.Pipe()
	go r.srv.HandleConn(sc)
	c2, err := syncnet.NewClient(cc, "alice", "gen2", syncnet.WithLedger(r.cliLed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	src2 := NewMemSource()
	for p, d := range r2copy {
		src2.WriteFile(p, d, 0) // startup rescan reports everything as created
	}
	pipe2 := NewPipeline(src2, NewExecutor(c2), Config{BaselinePath: base})
	if err := pipe2.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := pipe2.Poll(time.Minute); err != nil {
		t.Fatal(err)
	}
	wire0, _ := c2.WireTotals()
	st, _, _, err := pipe2.Tick(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Uploads != 0 || st.Deltas != 0 || st.Errors != 0 {
		t.Fatalf("restart re-synced unchanged content: %+v", st)
	}
	wire1, _ := c2.WireTotals()
	if moved := wire1 - wire0; moved != 0 {
		t.Fatalf("restart reconciliation read %d wire bytes, want 0 (listing happened at bootstrap)", moved)
	}

	// Deleting a file gen2 never uploaded works because the bootstrap
	// listing primed the file's server identity.
	src2.RemoveFile("doc.txt")
	if err := pipe2.Poll(time.Minute + time.Second); err != nil {
		t.Fatal(err)
	}
	st, _, _, err = pipe2.Tick(time.Minute + time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deletes != 1 || st.Errors != 0 {
		t.Fatalf("gen2 delete: %+v", st)
	}
	if f := r.srv.Snapshot("alice")["doc.txt"]; !f.Deleted {
		t.Fatalf("doc.txt still live server-side: %+v", f)
	}
}

// TestPipelineRestartDetectsOfflineDelete: a file deleted while no
// watcher was running produces no event on restart — the rescan simply
// never mentions it. The first poll must reconcile the loaded baseline
// against that full listing and delete the file remotely; otherwise it
// is stranded on the server forever.
func TestPipelineRestartDetectsOfflineDelete(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	r := newRig(t, 1, Config{BaselinePath: base})
	r.src.WriteFile("keep.txt", []byte("survives the outage"), 0)
	r.src.WriteFile("gone.txt", []byte("deleted while the daemon was down"), 0)
	if st := r.step(t, 0); st.Uploads != 2 {
		t.Fatalf("gen1 sync: %+v", st)
	}
	for _, c := range r.clients {
		c.Close()
	}

	// Generation two's rescan sees only keep.txt; gone.txt vanished
	// offline, so no remove event will ever name it.
	cc, sc := net.Pipe()
	go r.srv.HandleConn(sc)
	c2, err := syncnet.NewClient(cc, "alice", "gen2", syncnet.WithLedger(r.cliLed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	src2 := NewMemSource()
	src2.WriteFile("keep.txt", []byte("survives the outage"), 0)
	pipe2 := NewPipeline(src2, NewExecutor(c2), Config{BaselinePath: base})
	if err := pipe2.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := pipe2.Poll(time.Minute); err != nil {
		t.Fatal(err)
	}
	st, _, _, err := pipe2.Tick(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deletes != 1 || st.Uploads != 0 || st.Deltas != 0 || st.Errors != 0 {
		t.Fatalf("offline-delete reconciliation: %+v", st)
	}
	if f := r.srv.Snapshot("alice")["gone.txt"]; !f.Deleted {
		t.Fatalf("gone.txt still live server-side: %+v", f)
	}
	saved, err := LoadBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := saved["gone.txt"]; ok {
		t.Fatal("gone.txt still in the persisted baseline")
	}
	if _, ok := saved["keep.txt"]; !ok {
		t.Fatal("keep.txt missing from the persisted baseline")
	}
}

// TestPipelineASDBatchesBurst: under ASD a burst of quick edits
// reaches the server as one delta once the burst ends, not one
// transfer per edit.
func TestPipelineASDBatchesBurst(t *testing.T) {
	r := newRig(t, 1, Config{
		Defer: deferpolicy.Policy{
			Kind: deferpolicy.ASD, Epsilon: 200 * time.Millisecond, TMax: 10 * time.Second,
		},
	})
	// Edits every 300ms; ASD's estimate converges to 300ms+2·200ms =
	// 700ms, so the window outlives each gap and the burst coalesces.
	payload := []byte("burst content v0")
	r.src.WriteFile("burst.txt", payload, 0)
	transfers := 0
	var now time.Duration
	for i := 1; i <= 6; i++ {
		now = time.Duration(i) * 300 * time.Millisecond
		payload = append(payload, []byte(fmt.Sprintf(" v%d", i))...)
		r.src.WriteFile("burst.txt", payload, now)
		st := r.step(t, now)
		transfers += st.Uploads + st.Deltas
	}
	if transfers > 1 {
		t.Fatalf("%d transfers during the burst; ASD should have deferred (first write may sync once)", transfers)
	}
	// Quiesce: within TMax the deferred change must flush and converge.
	for i := 0; r.pipe.PendingPaths() > 0; i++ {
		if i > 200 {
			t.Fatalf("pipeline never flushed the deferred change")
		}
		now += 300 * time.Millisecond
		r.step(t, now)
	}
	if got := r.srv.Snapshot("alice")["burst.txt"]; string(got.Data) != string(payload) {
		t.Fatalf("server content %q, want %q", got.Data, payload)
	}
}
