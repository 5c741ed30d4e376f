package syncnet

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudsync/internal/invariant"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// TestLedgerRoundTrip drives the full operation mix through a ledgered
// client/server pair over net.Pipe and asserts the live path's core
// accounting contract: on each side, the sum of all attributed causes
// equals that side's total metered wire bytes, exactly. net.Pipe is
// synchronous, so the two sides must also agree with each other.
func TestLedgerRoundTrip(t *testing.T) {
	leakCheck(t)
	clientLed := &ledger.Ledger{}
	serverLed := &ledger.Ledger{}
	srv := NewServer(ServerConfig{Ledger: serverLed})
	cp, sp := net.Pipe()
	handlerCh := make(chan error, 1)
	go func() { handlerCh <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "alice", "ledger-test", WithLedger(clientLed))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	v1 := bytes.Repeat([]byte("attribution "), 4<<10)
	if _, err := c.Upload("report.txt", v1); err != nil {
		t.Fatalf("upload: %v", err)
	}
	// Same content under a new name: full-file dedup skips the payload.
	stats, err := c.Upload("copy.txt", v1)
	if err != nil {
		t.Fatalf("dedup upload: %v", err)
	}
	if !stats.DedupHit {
		t.Fatalf("second upload of identical content was not dedup-skipped: %+v", stats)
	}
	// Small edit: delta sync ships signatures + a mostly-copy delta.
	v2 := append(append([]byte{}, v1...), []byte("appended tail")...)
	stats, err = c.Upload("report.txt", v2)
	if err != nil {
		t.Fatalf("re-upload: %v", err)
	}
	if !stats.DeltaSync {
		t.Fatalf("re-upload was not a delta sync: %+v", stats)
	}
	if _, err := c.Download("report.txt"); err != nil {
		t.Fatalf("download: %v", err)
	}
	if err := c.Delete("copy.txt"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	c.Close()
	if err := <-handlerCh; err != nil {
		t.Fatalf("HandleConn: %v", err)
	}

	clientIn, clientOut := c.WireTotals()
	if got, want := clientLed.Total(), clientIn+clientOut; got != want {
		t.Errorf("client ledger total = %d, wire in+out = %d\n%s",
			got, want, clientLed.Snapshot().Table("client"))
	}
	srvStats := srv.Stats()
	if got, want := serverLed.Total(), srvStats.BytesReceived+srvStats.BytesSent; got != want {
		t.Errorf("server ledger total = %d, wire in+out = %d\n%s",
			got, want, serverLed.Snapshot().Table("server"))
	}
	// net.Pipe delivers synchronously: both sides metered the same bytes.
	if clientLed.Total() != serverLed.Total() {
		t.Errorf("client ledger total %d != server ledger total %d",
			clientLed.Total(), serverLed.Total())
	}

	// Every cause this operation mix exercises must have been charged on
	// both sides; nothing was retried, so retransmit must stay zero.
	for _, side := range []struct {
		name string
		led  *ledger.Ledger
	}{{"client", clientLed}, {"server", serverLed}} {
		for _, cause := range []ledger.Cause{
			ledger.Metadata, ledger.Payload, ledger.DedupProbe,
			ledger.DeltaLiteral, ledger.DeltaCopyRef, ledger.Framing,
		} {
			if side.led.Get(cause) == 0 {
				t.Errorf("%s ledger: cause %s never charged\n%s",
					side.name, cause, side.led.Snapshot().Table(side.name))
			}
		}
		if n := side.led.Get(ledger.Retransmit); n != 0 {
			t.Errorf("%s ledger: %d retransmit bytes without any retry", side.name, n)
		}
	}
	// The dedup-skipped copy must be far cheaper than the payload it
	// avoided: dedup probes are fingerprints, not content.
	if probe := clientLed.Get(ledger.DedupProbe); probe >= int64(len(v1)) {
		t.Errorf("dedup_probe bytes %d not smaller than the %d-byte payload they replace", probe, len(v1))
	}
}

// TestLedgerResumeAndRetransmit interrupts an upload mid-flight with a
// scheduled connection cut and lets the retry policy resume it, then
// asserts the ledger still balances exactly against the metered wire
// bytes and that the recovery charged resume bytes, with double-sent
// payload ranges (if any) tagged retransmit rather than payload.
func TestLedgerResumeAndRetransmit(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	d := newDevice(t, srv, "ledger-retry", FaultPlan{Seed: 7, MeanDropBytes: 16 << 10, MaxDrops: 2})
	c, clientLed, sched := d.c, d.led, d.sched

	payload := bytes.Repeat([]byte("resumable "), 16<<10)
	if _, err := c.Upload("big.bin", payload); err != nil {
		t.Fatalf("upload: %v", err)
	}
	c.Close()
	<-d.prevDone

	if sched.Stats().Drops == 0 {
		t.Fatal("fault schedule never fired; the test exercised nothing")
	}
	clientIn, clientOut := c.WireTotals()
	if got, want := clientLed.Total(), clientIn+clientOut; got != want {
		t.Errorf("client ledger total = %d, wire in+out = %d\n%s",
			got, want, clientLed.Snapshot().Table("client"))
	}
	if clientLed.Get(ledger.Resume) == 0 {
		t.Errorf("upload recovered from a cut but charged no resume bytes\n%s",
			clientLed.Snapshot().Table("client"))
	}
	// Payload charged as fresh can never exceed the file size: anything
	// the high-water mark saw twice must have gone to retransmit.
	if got := clientLed.Get(ledger.Payload); got > int64(len(payload)) {
		t.Errorf("fresh payload bytes %d exceed file size %d; re-sent ranges leaked past the retransmit split\n%s",
			got, len(payload), clientLed.Snapshot().Table("client"))
	}
}

// TestConcurrentSessionsLedgerExact runs many sessions at once over
// loopback TCP into one durable, traced, metered server: half upload
// lockstep (each small file inline, one exchange per file), half in
// bundles of eight (one exchange per batch), every session propagating
// its trace context. No operation may fail and the server must hold
// each session's bytes. While the sessions are still open, every
// ledger on either side must equal its metered wire bytes; the
// clients' ledgers must sum to the server's cause by cause, with
// payload and dedup probes exactly what the uploads put on the wire;
// and merging every dump must hang each server span a client parented
// remotely under that client's span.
func TestConcurrentSessionsLedgerExact(t *testing.T) {
	const sessions, rounds, batch, maxSize = 16, 12, 8, 4 << 10
	srvLed, srvTr, reg := &ledger.Ledger{}, obs.NewTracer(), obs.NewRegistry()
	srv, dial := startServer(t, ServerConfig{
		StateDir: t.TempDir(), Ledger: srvLed, Tracer: srvTr, Metrics: reg,
	})

	type session struct {
		user    string
		c       *Client
		written *atomic.Int64
		led     *ledger.Ledger
		tr      *obs.Tracer
		files   [rounds][]FileUpload
		payload int64 // Σ UploadStats.PayloadBytes
		err     error
	}
	rng := rand.New(rand.NewPCG(42, 0x5e55))
	ss := make([]*session, sessions)
	for i := range ss {
		s := &session{user: fmt.Sprintf("u%02d", i), led: &ledger.Ledger{}, tr: obs.NewTracer()}
		for r := range s.files {
			for f := range batch {
				data := make([]byte, 1+rng.IntN(maxSize))
				for k := range data {
					data[k] = byte(rng.Uint32())
				}
				s.files[r] = append(s.files[r], FileUpload{Name: fmt.Sprintf("r%02d/f%d", r, f), Data: data})
			}
		}
		s.c, s.written = dial(s.user, WithLedger(s.led), WithTracer(s.tr))
		ss[i] = s
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(lockstep bool) {
			defer wg.Done()
			<-start
			for _, files := range s.files {
				var stats []UploadStats
				if lockstep {
					for _, f := range files {
						st, err := s.c.Upload(f.Name, f.Data)
						if err != nil {
							s.err = err
							return
						}
						stats = append(stats, st)
					}
				} else if stats, s.err = s.c.UploadBundle(files); s.err != nil {
					return
				}
				for _, st := range stats {
					s.payload += int64(st.PayloadBytes)
				}
			}
		}(i%2 == 0)
	}
	close(start)
	wg.Wait()

	var payload, files int64
	for _, s := range ss {
		if s.err != nil {
			t.Fatalf("%s: %v", s.user, s.err)
		}
		for _, round := range s.files {
			for _, f := range round {
				if got, ok := srv.FileContent(s.user, f.Name); !ok || !bytes.Equal(got, f.Data) {
					t.Errorf("%s/%s: server holds %d bytes (present %v), sent %d", s.user, f.Name, len(got), ok, len(f.Data))
				}
				files++
			}
		}
		payload += s.payload
	}

	// The books are checked with every session still open, so the
	// residual a session's end sweeps into framing cannot hide a frame
	// left uncharged. The clients are idle and their books final; a
	// server meters and charges a reply just after writing it, so its
	// books may trail the clients' for a moment.
	var sum ledger.Snapshot
	var cliIn, cliOut int64
	for _, s := range ss {
		in, out := s.c.WireTotals()
		if w := s.written.Load(); w != out {
			t.Errorf("%s: socket carried %d bytes out, client metered %d", s.user, w, out)
		}
		for _, v := range invariant.CheckLedger(in+out, s.led.Snapshot()) {
			t.Errorf("%s ledger: %v", s.user, v)
		}
		sum = sum.Merge(s.led.Snapshot())
		cliIn, cliOut = cliIn+in, cliOut+out
	}
	var st ServerStats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st = srv.Stats()
		if st.BytesReceived == cliOut && st.BytesSent == cliIn && srvLed.Total() == cliIn+cliOut {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server read %d and wrote %d bytes and charged %d; clients wrote %d and read %d\n%s",
				st.BytesReceived, st.BytesSent, srvLed.Total(), cliOut, cliIn, srvLed.Table("server"))
		}
	}
	for _, v := range invariant.CheckLedger(st.BytesReceived+st.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
	if srvSnap := srvLed.Snapshot(); sum != srvSnap {
		t.Errorf("client ledgers sum to\n%s\nserver ledger\n%s", sum.Table("clients"), srvSnap.Table("server"))
	}
	if got := sum.Get(ledger.Payload); got != payload {
		t.Errorf("payload charged %d bytes, the uploads sent %d", got, payload)
	}
	if got, want := sum.Get(ledger.DedupProbe), files*protocol.FingerprintSize; got != want {
		t.Errorf("dedup_probe charged %d bytes, want %d (one hash per file)", got, want)
	}

	for _, s := range ss {
		s.c.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("syncd_wal_fsyncs_total", "").Value(); n == 0 {
		t.Error("no WAL fsync: the server was not durable")
	}

	dumps := []obs.TraceDump{srvTr.Dump("server")} // first: merged IDs equal its span IDs
	for _, s := range ss {
		dumps = append(dumps, s.tr.Dump(s.user))
	}
	merged := obs.Merge(dumps...)
	byID := make(map[uint64]obs.MergedSpan, len(merged))
	for _, m := range merged {
		byID[m.ID] = m
	}
	remote := 0
	for _, sp := range dumps[0].Spans {
		if sp.RemoteParent == 0 {
			continue
		}
		remote++
		user := sp.Attr("user")
		if p, ok := byID[byID[sp.ID].Parent]; !ok || p.Process != user {
			t.Errorf("server span %s of %v (remote parent %d) resolved under %q", sp.Name, user, sp.RemoteParent, p.Process)
		}
	}
	if ops := sessions / 2 * rounds * (batch + 1); remote != ops {
		t.Errorf("%d remotely parented server spans for %d operations", remote, ops)
	}
	t.Logf("%d files, %d wire bytes, %d fsyncs, %d remotely parented server spans",
		files, st.BytesReceived+st.BytesSent, reg.Counter("syncd_wal_fsyncs_total", "").Value(), remote)
}
