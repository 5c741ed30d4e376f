package syncnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"cloudsync/internal/content"
)

// tcpPair returns two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-done
	if s == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestFaultConnCutsAtBudget(t *testing.T) {
	clientEnd, serverEnd := tcpPair(t)
	sched := NewFaultScheduler(FaultPlan{Seed: 42, MeanDropBytes: 10_000})
	conn := sched.Wrap(clientEnd)

	got := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, serverEnd)
		got <- n
	}()

	var sent int64
	chunk := make([]byte, 1024)
	var lastErr error
	for i := 0; i < 100; i++ {
		n, err := conn.Write(chunk)
		sent += int64(n)
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrInjectedFault) {
		t.Fatalf("write error = %v, want ErrInjectedFault", lastErr)
	}
	// Budget is uniform in [mean/2, 3·mean/2).
	if sent < 5_000 || sent >= 15_000 {
		t.Fatalf("cut after %d bytes, want within [5000, 15000)", sent)
	}
	// The permitted prefix must drain to the peer (half-close, not abort).
	if n := <-got; n != sent {
		t.Fatalf("peer received %d bytes, client delivered %d", n, sent)
	}
	if st := sched.Stats(); st.Drops != 1 || st.BytesWritten != sent {
		t.Fatalf("scheduler stats = %+v, sent %d", st, sent)
	}
	// The conn stays dead.
	if _, err := conn.Write(chunk); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-trip write error = %v", err)
	}
	if _, err := conn.Read(chunk); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-trip read error = %v", err)
	}
}

func TestFaultSchedulerDeterministic(t *testing.T) {
	cutPoint := func(seed uint64) int64 {
		clientEnd, serverEnd := tcpPair(t)
		go io.Copy(io.Discard, serverEnd)
		conn := NewFaultScheduler(FaultPlan{Seed: seed, MeanDropBytes: 50_000}).Wrap(clientEnd)
		var sent int64
		chunk := make([]byte, 512)
		for {
			n, err := conn.Write(chunk)
			sent += int64(n)
			if err != nil {
				return sent
			}
		}
	}
	a, b := cutPoint(7), cutPoint(7)
	if a != b {
		t.Fatalf("same seed cut at %d and %d", a, b)
	}
	if c := cutPoint(8); c == a {
		t.Fatalf("different seeds both cut at %d (suspicious)", a)
	}
}

func TestFaultSchedulerMaxDrops(t *testing.T) {
	sched := NewFaultScheduler(FaultPlan{Seed: 1, MeanDropBytes: 100, MaxDrops: 1})
	clientEnd, serverEnd := tcpPair(t)
	go io.Copy(io.Discard, serverEnd)
	conn := sched.Wrap(clientEnd)
	chunk := make([]byte, 64)
	for {
		if _, err := conn.Write(chunk); err != nil {
			break
		}
	}
	if sched.Stats().Drops != 1 {
		t.Fatalf("stats = %+v", sched.Stats())
	}
	// The next wrapped conn runs fault-free.
	c2, s2 := tcpPair(t)
	go io.Copy(io.Discard, s2)
	conn2 := sched.Wrap(c2)
	for i := 0; i < 50; i++ {
		if _, err := conn2.Write(make([]byte, 1024)); err != nil {
			t.Fatalf("write %d on post-cap conn failed: %v", i, err)
		}
	}
	if sched.Stats().Drops != 1 {
		t.Fatalf("post-cap conn was cut: %+v", sched.Stats())
	}
}

// faultyDialer returns a dialer producing fault-wrapped connections to
// the server's listener address, plus the scheduler for its counters.
func faultyDialer(t *testing.T, addr string, plan FaultPlan) (func() (net.Conn, error), *FaultScheduler) {
	t.Helper()
	sched := NewFaultScheduler(plan)
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return sched.Wrap(conn), nil
	}
	return dial, sched
}

// startFaultServer starts a server directly on a TCP listener and
// returns it with the listener address.
func startFaultServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	leakCheck(t)
	srv := NewServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// stashWait returns a Sleep hook that waits (bounded) for the server
// to stash the dropped session's partial upload, so the reconnecting
// client's ResumeQuery deterministically finds it.
func stashWait(srv *Server) func(time.Duration) {
	return func(time.Duration) {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if srv.Stats().PendingResumable > 0 {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestUploadResumesAfterInjectedFaults is the acceptance test for the
// retry/resume path: a 4 MiB upload over a link that cuts the
// connection every ~1 MiB completes, resumes from the server's
// buffered offset instead of restarting, and the wire carries less
// than one extra file's worth of retransmission.
func TestUploadResumesAfterInjectedFaults(t *testing.T) {
	srv, addr := startFaultServer(t, ServerConfig{})
	dial, sched := faultyDialer(t, addr, FaultPlan{Seed: 3, MeanDropBytes: 1 << 20, MaxDrops: 3})

	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, "alice", "laptop",
		WithDialer(dial),
		WithRetry(RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, Seed: 1, Sleep: stashWait(srv)}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	data := content.Random(4<<20, 99).Bytes()
	stats, err := c.Upload("big.bin", data)
	if err != nil {
		t.Fatalf("upload never completed: %v (scheduler %+v)", err, sched.Stats())
	}
	if stats.Attempts < 2 {
		t.Fatalf("upload took %d attempt(s); the fault plan should have cut it at least once", stats.Attempts)
	}
	if stats.ResumedFrom == 0 {
		t.Fatal("upload restarted from scratch instead of resuming")
	}
	if srv.Stats().Resumes == 0 {
		t.Fatalf("server saw no resumes: %+v", srv.Stats())
	}
	got, ok := srv.FileContent("alice", "big.bin")
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("server content mismatch after resumed upload")
	}
	// The acceptance bound: retransmitted bytes < one full file size,
	// i.e. total bytes on the wire < 2× the payload.
	if wrote := sched.Stats().BytesWritten; wrote >= 2*int64(len(data)) {
		t.Fatalf("wire carried %d bytes for a %d-byte file — resume did not save retransmission", wrote, len(data))
	}
}

func TestDownloadRetriesAfterInjectedFault(t *testing.T) {
	srv, addr := startFaultServer(t, ServerConfig{})
	data := content.Random(1<<20, 5).Bytes()

	// Seed the server over a clean connection.
	clean, err := Dial("tcp", addr, "alice", "setup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Upload("doc", data); err != nil {
		t.Fatal(err)
	}
	clean.Close()

	// Budget covers the upload-side chatter plus part of the download,
	// so the transfer is cut mid-download and must be re-requested.
	dial, sched := faultyDialer(t, addr, FaultPlan{Seed: 2, MeanDropBytes: 300_000, MaxDrops: 1})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, "alice", "phone",
		WithDialer(dial),
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 9,
			Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	got, err := c.Download("doc")
	if err != nil {
		t.Fatalf("download never completed: %v (scheduler %+v)", err, sched.Stats())
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download mismatch after retry")
	}
	if sched.Stats().Drops == 0 {
		t.Fatal("fault plan injected nothing; the test exercised no retry")
	}
	if srv.Stats().Downloads < 2 {
		t.Fatalf("server stats = %+v, want at least 2 download attempts", srv.Stats())
	}
}

func TestDeltaUploadRetriesAfterInjectedFault(t *testing.T) {
	srv, addr := startFaultServer(t, ServerConfig{})
	base := content.Random(1<<20, 11).Bytes()

	clean, err := Dial("tcp", addr, "alice", "setup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Upload("big", base); err != nil {
		t.Fatal(err)
	}
	clean.Close()

	// A 16 KiB rewrite: the dedup-hit upload below leaves the client the
	// signature of base (4 KiB blocks), so the modify is one DeltaMsg
	// carrying ~20 KiB of literals.
	modified := append([]byte(nil), base...)
	copy(modified[100:], content.Random(16<<10, 1<<30).Bytes()) // a seed far from 11: no shared bytes

	// The budget, in [4 000, 12 000) bytes, comfortably covers the
	// handshake and the dedup-probing re-upload (a few hundred bytes) but
	// lands inside that DeltaMsg.
	dial, _ := faultyDialer(t, addr, FaultPlan{Seed: 6, MeanDropBytes: 8_000, MaxDrops: 1})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, "alice", "laptop",
		WithDialer(dial), WithBlockSize(4096),
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 4,
			Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Make the name known cheaply: re-uploading the unchanged content
	// dedups server-side, costing only control messages.
	seed, err := c.Upload("big", base)
	if err != nil {
		t.Fatal(err)
	}
	if !seed.DedupHit || seed.Attempts != 1 {
		t.Fatalf("seeding upload was not a dedup hit on the first attempt: %+v", seed)
	}
	stats, err := c.Upload("big", modified)
	if err != nil {
		t.Fatalf("delta upload never completed: %v", err)
	}
	// The retry forgot the remembered signature with the broken session
	// and asked for one.
	if stats.Attempts < 2 || !stats.DeltaSync || srv.Stats().SignaturesServed != 1 {
		t.Fatalf("stats = %+v, %d signatures served; want a retried delta sync that asked once",
			stats, srv.Stats().SignaturesServed)
	}
	got, err := c.Download("big")
	if err != nil || !bytes.Equal(got, modified) {
		t.Fatalf("content diverged after retried delta sync (err %v)", err)
	}
}

func TestUploadFailsWithoutRetryPolicy(t *testing.T) {
	_, addr := startFaultServer(t, ServerConfig{})
	dial, _ := faultyDialer(t, addr, FaultPlan{Seed: 1, MeanDropBytes: 100_000, MaxDrops: 1})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, "alice", "laptop") // no retry, no dialer
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Upload("big", content.Random(1<<20, 1).Bytes()); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("upload error = %v, want the injected fault to surface", err)
	}
}

func TestServerCloseIsDeterministic(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	// Park a few idle sessions on the server.
	for i := 0; i < 3; i++ {
		c, err := Dial("tcp", l.Addr().String(), "alice", "dev")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Upload("f", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Close is idempotent, and new work is refused.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	if err := srv.HandleConn(cb); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("HandleConn after Close = %v, want ErrServerClosed", err)
	}
	if err := srv.Serve(l); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Close = %v, want ErrServerClosed", err)
	}
}

func TestServerCloseInterruptsLiveSession(t *testing.T) {
	leakCheck(t)
	srv, addr := startFaultServer(t, ServerConfig{})
	c, err := Dial("tcp", addr, "alice", "dev")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Upload("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The parked session's connection was torn down: the next operation
	// fails rather than hanging.
	if _, err := c.Upload("f", []byte("world")); err == nil {
		t.Fatal("upload succeeded against a closed server")
	}
}
