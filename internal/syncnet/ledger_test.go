package syncnet

import (
	"bytes"
	"net"
	"testing"

	"cloudsync/internal/obs/ledger"
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
