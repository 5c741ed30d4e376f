package syncnet

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

func makeBatch(prefix string, n, size int) []FileUpload {
	files := make([]FileUpload, n)
	for i := range files {
		data := bytes.Repeat([]byte{byte('a' + i%26)}, size)
		data[0] = byte(i) // distinct content per file
		files[i] = FileUpload{Name: fmt.Sprintf("%s/f%03d.txt", prefix, i), Data: data}
	}
	return files
}

func TestUploadBundleRoundTrip(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")

	files := makeBatch("docs", 12, 700)
	stats, err := c.UploadBundle(files)
	if err != nil {
		t.Fatalf("UploadBundle: %v", err)
	}
	for i, st := range stats {
		if st.DedupHit {
			t.Errorf("file %d: unexpected dedup hit on first upload", i)
		}
		if st.Version != 1 {
			t.Errorf("file %d: version = %d, want 1", i, st.Version)
		}
	}
	for _, f := range files {
		got, err := c.Download(f.Name)
		if err != nil {
			t.Fatalf("download %s: %v", f.Name, err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Fatalf("download %s: content mismatch", f.Name)
		}
	}

	// Re-bundling identical content must dedup every entry and bump
	// versions: the payload rode along but the server discarded it.
	stats, err = c.UploadBundle(files)
	if err != nil {
		t.Fatalf("re-bundle: %v", err)
	}
	for i, st := range stats {
		if !st.DedupHit {
			t.Errorf("file %d: re-bundle was not a dedup hit", i)
		}
		if st.Version != 2 {
			t.Errorf("file %d: version = %d, want 2", i, st.Version)
		}
	}

	if st := srv.Stats(); st.Bundles != 2 || st.BundledFiles != 24 {
		t.Errorf("server stats: Bundles=%d BundledFiles=%d, want 2 and 24", st.Bundles, st.BundledFiles)
	}
}

// TestServerCloseDrainsPipelinedRequests is the deterministic-drain
// contract: requests fully read off a pipelined connection when Close
// fires still get dispatched and their replies flushed before the
// connection dies — Close half-closes the read side rather than
// snapping the socket — and no handler goroutine outlives Close (the
// leak check registered by startServer enforces that part).
func TestServerCloseDrainsPipelinedRequests(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(m protocol.Message) int {
		enc := protocol.Encode(m)
		if _, err := conn.Write(enc); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
		return len(enc)
	}
	wrote := send(&protocol.Hello{User: "alice", Device: "drain", Version: "cloudsync/1"})
	const burst = 16
	for i := 0; i < burst; i++ {
		wrote += send(&protocol.IndexUpdate{
			Name: fmt.Sprintf("f%02d", i), Size: 1, FileHash: [16]byte{byte(i)},
		})
	}

	// Wait until the server has read the whole burst off the socket (the
	// reader goroutine queues ahead of dispatch), so Close fires with
	// requests genuinely in flight.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().BytesReceived < int64(wrote) {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d of %d bytes before deadline", srv.Stats().BytesReceived, wrote)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Every queued request's reply must arrive, then EOF.
	for i := 0; i < burst; i++ {
		m, err := protocol.ReadMessage(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if _, ok := m.(*protocol.IndexReply); !ok {
			t.Fatalf("reply %d: got %v, want IndexReply", i, m.Type())
		}
	}
	if _, err := protocol.ReadMessage(conn); err == nil {
		t.Fatal("connection still open after drain; want EOF")
	}
}

// TestBundleFaultRetryRetransmit cuts the connection mid-bundle and
// lets the retry policy replay it: the upload must converge, the
// client's per-byte ledger must still balance exactly against its
// metered wire bytes, and the re-sent ranges must be tagged retransmit
// rather than inflating the fresh-payload figure.
func TestBundleFaultRetryRetransmit(t *testing.T) {
	leakCheck(t)
	clientLed := &ledger.Ledger{}
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	// Budget smaller than the bundle frame, so the first attempt dies
	// mid-bundle.
	sched := NewFaultScheduler(FaultPlan{Seed: 11, MeanDropBytes: 6 << 10, MaxDrops: 2})

	var prevDone chan struct{}
	dial := func() (net.Conn, error) {
		if prevDone != nil {
			<-prevDone
		}
		clientEnd, serverEnd := net.Pipe()
		done := make(chan struct{})
		prevDone = done
		go func() {
			defer close(done)
			srv.HandleConn(serverEnd)
		}()
		return sched.Wrap(clientEnd), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, "alice", "bundle-retry",
		WithLedger(clientLed), WithDialer(dial),
		WithRetry(RetryPolicy{MaxAttempts: 6, Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}

	files := makeBatch("retry", 6, 2048)
	var payloadBytes int64
	for _, f := range files {
		payloadBytes += int64(len(f.Data))
	}
	stats, err := c.UploadBundle(files)
	if err != nil {
		t.Fatalf("UploadBundle under faults: %v", err)
	}
	if stats[0].Attempts < 2 {
		t.Fatalf("bundle completed in %d attempt(s); the fault never fired", stats[0].Attempts)
	}
	for _, f := range files {
		got, err := c.Download(f.Name)
		if err != nil || !bytes.Equal(got, f.Data) {
			t.Fatalf("download %s after retried bundle: %v", f.Name, err)
		}
	}
	c.Close()
	<-prevDone

	clientIn, clientOut := c.WireTotals()
	if got, want := clientLed.Total(), clientIn+clientOut; got != want {
		t.Errorf("client ledger total = %d, wire in+out = %d\n%s",
			got, want, clientLed.Snapshot().Table("client"))
	}
	if clientLed.Get(ledger.Retransmit) == 0 {
		t.Errorf("bundle was replayed but no bytes were tagged retransmit\n%s",
			clientLed.Snapshot().Table("client"))
	}
}

// TestConcurrentBatchedClients races many clients, each uploading
// lockstep (files above one block, so the index/data/commit exchange)
// and bundled, against one server — the coverage the race detector
// needs over the reader/dispatcher split and the pooled buffers.
func TestConcurrentBatchedClients(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{})
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		c, _ := dial(fmt.Sprintf("user%d", g))
		wg.Add(1)
		go func(g int, c *Client) {
			defer wg.Done()
			files := append(makeBatch(fmt.Sprintf("u%d/big", g), 5, 12<<10),
				makeBatch(fmt.Sprintf("u%d", g), 5, 600)...)
			for _, f := range files[:5] {
				if _, err := c.Upload(f.Name, f.Data); err != nil {
					errs <- fmt.Errorf("client %d upload %s: %w", g, f.Name, err)
					return
				}
			}
			if _, err := c.UploadBundle(files[5:]); err != nil {
				errs <- fmt.Errorf("client %d bundle: %w", g, err)
				return
			}
			for _, f := range files {
				got, err := c.Download(f.Name)
				if err != nil || !bytes.Equal(got, f.Data) {
					errs <- fmt.Errorf("client %d download %s: %v", g, f.Name, err)
					return
				}
			}
		}(g, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.BundledFiles != clients*5 {
		t.Errorf("BundledFiles = %d, want %d", st.BundledFiles, clients*5)
	}
}
