package syncnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/delta"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// rawSession speaks the protocol message by message over net.Pipe, for
// tests that must place a request between two of another session's.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	done chan error
}

func openRaw(t *testing.T, srv *Server, user string) *rawSession {
	t.Helper()
	cp, sp := net.Pipe()
	r := &rawSession{t: t, conn: cp, done: make(chan error, 1)}
	go func() { r.done <- srv.HandleConn(sp) }()
	if _, err := cp.Write(protocol.Encode(&protocol.Hello{User: user, Device: "raw"})); err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	return r
}

func (r *rawSession) roundTrip(m protocol.Message) protocol.Message {
	r.t.Helper()
	if _, err := r.conn.Write(protocol.Encode(m)); err != nil {
		r.t.Fatalf("raw %v: %v", m.Type(), err)
	}
	reply, err := protocol.ReadMessage(r.conn)
	if err != nil {
		r.t.Fatalf("raw reply to %v: %v", m.Type(), err)
	}
	return reply
}

// served requests name's signature at block size bs (0: the one the
// file's size calls for) and returns the server's answer.
func (r *rawSession) served(name string, bs int) *protocol.SignatureMsg {
	r.t.Helper()
	reply := r.roundTrip(&protocol.SigRequest{Name: name, BlockSize: uint32(bs)})
	sig, ok := reply.(*protocol.SignatureMsg)
	if !ok {
		r.t.Fatalf("signature of %q: got %#v", name, reply)
	}
	return sig
}

// signature returns the payload of the signature served for name.
func (r *rawSession) signature(name string, bs int) []byte {
	r.t.Helper()
	return r.served(name, bs).Payload
}

func (r *rawSession) close() {
	r.t.Helper()
	r.conn.Close()
	if err := <-r.done; err != nil {
		r.t.Fatalf("raw session: %v", err)
	}
}

// pipeClient connects a Client to srv over net.Pipe; the returned func
// closes it and waits for the server side of the session to end.
func pipeClient(t *testing.T, srv *Server, user, device string, wrap func(net.Conn) net.Conn, opts ...ClientOption) (*Client, func()) {
	t.Helper()
	cp, sp := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	var conn net.Conn = cp
	if wrap != nil {
		conn = wrap(cp)
	}
	c, err := NewClient(conn, user, device, opts...)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c, func() {
		t.Helper()
		c.Close()
		if err := <-done; err != nil {
			t.Fatalf("HandleConn(%s): %v", device, err)
		}
	}
}

// beforeDeltaConn runs hook once, just before the first DeltaMsg frame
// is written: the instant between a client's signature read and its
// delta send.
type beforeDeltaConn struct {
	net.Conn
	hook func()
}

func (c *beforeDeltaConn) Write(p []byte) (int, error) {
	if c.hook != nil && len(p) > 0 && protocol.MsgType(p[0]) == protocol.TypeDelta {
		hook := c.hook
		c.hook = nil
		hook()
	}
	return c.Conn.Write(p)
}

// TestStaleBasisDeltaIsRefused interleaves two devices of one account
// on one file: A is served the signature of v1, B delta-syncs the file
// to v2, then A's delta — cut against v1 — arrives. Applied to v2 it
// would splice A's edit into B's content, a file neither device ever
// had, with nothing on the delta path to notice. The server must refuse
// it and A must converge by re-requesting the signature.
func TestStaleBasisDeltaIsRefused(t *testing.T) {
	leakCheck(t)
	srvLed := &ledger.Ledger{}
	srv := NewServer(ServerConfig{Ledger: srvLed})
	t.Cleanup(func() { srv.Close() })

	base := content.Random(16<<10, 7).Bytes()
	aData := append([]byte(nil), base...)
	aData[2*1024+10] ^= 0xFF // A edits block 2
	bData := append([]byte(nil), base...)
	bData[9*1024+10] ^= 0xFF // B edits block 9

	aLed, bLed := &ledger.Ledger{}, &ledger.Ledger{}
	b, closeB := pipeClient(t, srv, "alice", "dev-b", nil, WithLedger(bLed), WithBlockSize(1024))
	var aConn *beforeDeltaConn
	a, closeA := pipeClient(t, srv, "alice", "dev-a", func(c net.Conn) net.Conn {
		aConn = &beforeDeltaConn{Conn: c}
		return aConn
	}, WithLedger(aLed), WithBlockSize(1024))

	if _, err := a.Upload("shared.bin", base); err != nil {
		t.Fatalf("seeding upload: %v", err)
	}
	if _, err := b.Download("shared.bin"); err != nil { // B learns the file
		t.Fatalf("device B download: %v", err)
	}
	var hookErr error
	aConn.hook = func() {
		st, err := b.Upload("shared.bin", bData)
		if err == nil && !st.DeltaSync {
			err = fmt.Errorf("device B did not delta-sync: %+v", st)
		}
		hookErr = err
	}
	st, err := a.Upload("shared.bin", aData)
	if hookErr != nil {
		t.Fatalf("device B inside the interleave: %v", hookErr)
	}
	if err != nil {
		t.Fatalf("device A did not converge after the refusal: %v", err)
	}
	if !st.DeltaSync || st.Version != 3 {
		t.Fatalf("device A's retry: %+v, want a delta sync committing v3", st)
	}

	got, _ := srv.FileContent("alice", "shared.bin")
	switch {
	case bytes.Equal(got, aData):
	case bytes.Equal(got, bData):
		t.Fatalf("server holds B's content although A's upload reported success")
	default:
		t.Fatalf("server content is neither device's: a delta was applied to a basis it was not cut against")
	}

	closeA()
	closeB()
	aIn, aOut := a.WireTotals()
	bIn, bOut := b.WireTotals()
	for _, v := range invariant.CheckLedger(aIn+aOut, aLed.Snapshot()) {
		t.Errorf("device A ledger: %v", v)
	}
	for _, v := range invariant.CheckLedger(bIn+bOut, bLed.Snapshot()) {
		t.Errorf("device B ledger: %v", v)
	}
	ss := srv.Stats()
	for _, v := range invariant.CheckLedger(ss.BytesReceived+ss.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
	// net.Pipe is synchronous: the server saw exactly the two devices'
	// bytes, refusal and retry included.
	if got, want := srvLed.Total(), aLed.Total()+bLed.Total(); got != want {
		t.Errorf("server ledger total %d, devices' ledgers sum to %d", got, want)
	}
}

// TestDeltaWithoutBaseVersionIsRefused: a DeltaMsg that names no base
// version names version 0, which no file is at, so it is refused —
// even straight after the session was served the file's signature —
// and the session stays usable. One base version admits one delta, not
// two.
func TestDeltaWithoutBaseVersionIsRefused(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "dev", nil)
	v1 := content.Random(4096, 1).Bytes()
	if _, err := c.Upload("f", v1); err != nil {
		t.Fatal(err)
	}
	closeC()

	raw := openRaw(t, srv, "alice")
	defer raw.close()
	v2 := append([]byte(nil), v1...)
	v2[100] ^= 1
	payload := delta.Compute(delta.Sign(v1, 512), v2).Encode()
	wantConflict := func(label string, reply protocol.Message) {
		t.Helper()
		if e, ok := reply.(*protocol.Error); !ok || e.Code != protocol.ErrConflict {
			t.Fatalf("%s: reply %#v, want ErrConflict", label, reply)
		}
	}
	wantConflict("unsolicited delta", raw.roundTrip(&protocol.DeltaMsg{Name: "f", Payload: payload}))
	sig := raw.served("f", 512)
	wantConflict("delta on version 0 after its signature", raw.roundTrip(&protocol.DeltaMsg{Name: "f", Payload: payload}))
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v1) {
		t.Fatal("a refused delta changed the content")
	}
	onBase := &protocol.DeltaMsg{Name: "f", Payload: payload, BaseVersion: sig.Version}
	if ack, ok := raw.roundTrip(onBase).(*protocol.Ack); !ok || ack.Version != 2 {
		t.Fatalf("delta on the served version: %#v, want ack of v2", ack)
	}
	wantConflict("second delta on one base", raw.roundTrip(onBase))
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v2) {
		t.Fatal("server content is not the one accepted delta's target")
	}
	if ss := srv.Stats(); ss.CondDeltaConflicts != 3 {
		t.Fatalf("%d deltas counted as refused, want 3", ss.CondDeltaConflicts)
	}
}

// TestClientSurfacesPersistentConflict: against a writer that moves the
// file before every one of the client's deltas lands, deltaUpload gives
// up after its bounded re-requests and reports the conflict.
func TestClientSurfacesPersistentConflict(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	other, closeOther := pipeClient(t, srv, "alice", "other", nil, WithBlockSize(512))
	defer closeOther()

	const size = 16 << 10 // several blocks: a one-block file would go inline
	rounds := 0
	var conn *beforeDeltaConn
	rearm := func() {
		rounds++
		if _, err := other.Upload("f", content.Random(size, int64(100+rounds)).Bytes()); err != nil {
			t.Errorf("competing writer: %v", err)
		}
	}
	c, closeC := pipeClient(t, srv, "alice", "dev", func(nc net.Conn) net.Conn {
		conn = &beforeDeltaConn{Conn: nc}
		return conn
	}, WithBlockSize(512))
	defer closeC()
	if _, err := c.Upload("f", content.Random(size, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Download("f"); err != nil {
		t.Fatal(err)
	}
	// Re-arm from inside the hook so every delta of the operation loses.
	var hook func()
	hook = func() { rearm(); conn.hook = hook }
	conn.hook = hook
	_, err := c.Upload("f", content.Random(size, 2).Bytes())
	var perr *protocol.Error
	if !errors.As(err, &perr) || perr.Code != protocol.ErrConflict {
		t.Fatalf("upload against a restless writer: %v, want ErrConflict", err)
	}
	if rounds != maxDeltaConflicts+1 {
		t.Fatalf("client sent %d deltas, want %d (one plus the bounded re-requests)", rounds, maxDeltaConflicts+1)
	}
	conn.hook = nil
	if _, err := c.Upload("f", content.Random(size, 3).Bytes()); err != nil {
		t.Fatalf("session unusable after a surfaced conflict: %v", err)
	}
}

// TestServedSignatureMatchesContentOnEveryPath walks every way a file's
// content can change and after each step asks for the signature: the
// served bytes must be exactly delta.Sign(current content).Encode(), and
// the served version the one Snapshot reports. The walk ends across a
// Close and a reopen of the state dir.
func TestServedSignatureMatchesContentOnEveryPath(t *testing.T) {
	leakCheck(t)
	const bs = 1024
	dir := t.TempDir()
	srv, err := OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "dev", nil, WithBlockSize(bs))
	probe := openRaw(t, srv, "alice")

	check := func(step string) {
		t.Helper()
		cur, ok := srv.FileContent("alice", "f")
		if !ok {
			t.Fatalf("%s: file missing", step)
		}
		sig := probe.served("f", bs)
		if want := delta.Sign(cur, bs).Encode(); !bytes.Equal(sig.Payload, want) {
			t.Fatalf("%s: served signature differs from delta.Sign(current content)", step)
		}
		if want := srv.Snapshot("alice")["f"].Version; sig.Version != want {
			t.Fatalf("%s: served signature names v%d, the file is at v%d", step, sig.Version, want)
		}
	}
	upload := func(step string, data []byte, wantDelta bool) {
		t.Helper()
		st, err := c.Upload("f", data)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if st.DeltaSync != wantDelta {
			t.Fatalf("%s: DeltaSync = %v, want %v", step, st.DeltaSync, wantDelta)
		}
	}
	edit := func(data []byte, at int) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0xFF
		return out
	}
	cur := content.Random(20*bs+300, 11).Bytes()

	upload("full upload", cur, false)
	check("after full upload")
	check("unchanged file")

	cur = edit(cur, 5*bs+1)
	upload("delta sync", cur, true)
	check("after delta sync")

	cur = append(edit(cur, 100), content.Random(3*bs, 12).Bytes()...)
	// The client kept the signature its first delta sync ended on: this
	// one names its base version and asks for nothing.
	served := srv.Stats().SignaturesServed
	upload("delta sync that grows the file", cur, true)
	if st := srv.Stats(); st.SignaturesServed != served || st.CondDeltaConflicts != 0 {
		t.Fatalf("repeat delta sync: %d signatures requested, %d deltas refused, want none",
			st.SignaturesServed-served, st.CondDeltaConflicts)
	}
	check("after growing delta sync")

	id := c.ids["f"]
	cur = content.Random(18*bs, 13).Bytes()
	c.Prime("f", id, false) // forget the file: next upload is a full one
	upload("full overwrite", cur, false)
	check("after full overwrite")

	cur = content.Random(3000, 14).Bytes()
	if _, err := c.UploadBundle([]FileUpload{{Name: "f", Data: cur}}); err != nil {
		t.Fatalf("bundle: %v", err)
	}
	check("after bundle entry")

	cur = content.Random(9*bs+7, 15).Bytes()
	if _, err := c.Upload("elsewhere", cur); err != nil {
		t.Fatal(err)
	}
	c.Prime("f", id, false)
	if st, err := c.Upload("f", cur); err != nil || !st.DedupHit {
		t.Fatalf("dedup-hit store: %+v, %v", st, err)
	}
	check("after dedup-hit store")

	if err := c.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if e, ok := probe.roundTrip(&protocol.SigRequest{Name: "f"}).(*protocol.Error); !ok || e.Code != protocol.ErrNotFound {
		t.Fatalf("signature of a deleted file: %#v", e)
	}
	cur = edit(cur, 4000)
	upload("recreate after delete", cur, false)
	check("after delete and recreate")

	if got, want := probe.signature("f", 512), delta.Sign(cur, 512).Encode(); !bytes.Equal(got, want) {
		t.Fatal("signature at another block size differs from delta.Sign")
	}

	// A session is served a signature at one block size, another session
	// one at another, then the first session's delta lands: the file has
	// not moved, so it applies.
	second := openRaw(t, srv, "alice")
	sig := second.served("f", bs)
	basis, err := delta.DecodeSignature(sig.Payload)
	if err != nil {
		t.Fatal(err)
	}
	probe.signature("f", 512)
	cur = edit(cur, 2*bs)
	reply := second.roundTrip(&protocol.DeltaMsg{Name: "f", Payload: delta.Compute(basis, cur).Encode(), BaseVersion: sig.Version})
	if ack, ok := reply.(*protocol.Ack); !ok || !ack.OK {
		t.Fatalf("delta after another block size was served: %#v", reply)
	}
	second.close()
	check("after a delta on a signature served between others")

	probe.close()
	closeC()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: content and versions come back from the log.
	srv, err = OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, cur) {
		t.Fatal("content diverged across reopen")
	}
	probe = openRaw(t, srv, "alice")
	defer probe.close()
	c, closeC = pipeClient(t, srv, "alice", "dev", nil, WithBlockSize(bs))
	defer closeC()
	check("after reopen")
	if _, err := c.List(); err != nil { // learn the file
		t.Fatal(err)
	}
	cur = edit(cur, 7*bs+3)
	upload("delta sync after reopen", cur, true)
	check("after post-reopen delta sync")
}

// TestDeleteByIDIndex: Delete names a file by id, resolved through the
// per-user index — across delete→recreate→delete (the name keeps its
// file and id), for ids the user does not own, and for files that came
// back from the durable log.
func TestDeleteByIDIndex(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	srv, err := OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "dev", nil)
	mallory := openRaw(t, srv, "mallory")

	if _, err := c.Upload("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadBundle([]FileUpload{{Name: "b", Data: []byte("bundled")}}); err != nil {
		t.Fatal(err)
	}
	idA := c.ids["a"]
	if e, ok := mallory.roundTrip(&protocol.Delete{FileID: idA}).(*protocol.Error); !ok || e.Code != protocol.ErrNotFound {
		t.Fatalf("another user's delete of alice's id: %#v", e)
	}
	mallory.close()

	if err := c.Delete("a"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Upload("a", []byte("second")); err != nil {
		t.Fatalf("recreate: %v", err)
	}
	if id := c.ids["a"]; id != idA {
		t.Fatalf("recreated file got id %d, want the original %d", id, idA)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatalf("delete after recreate: %v", err)
	}
	if err := c.Delete("a"); err == nil {
		t.Fatal("deleting an already deleted file succeeded")
	}
	want := srv.Snapshot("alice")
	if f := want["a"]; !f.Deleted || f.Version != 4 || f.History != 2 {
		t.Fatalf("a after delete/recreate/delete: %+v", f)
	}
	closeC()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv = reopenServer(t, dir)
	sameSnapshot(t, "reopen", want, srv.Snapshot("alice"))
	c, closeC = pipeClient(t, srv, "alice", "dev", nil)
	defer closeC()
	if _, err := c.List(); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("b"); err != nil {
		t.Fatalf("deleting a replayed bundle file: %v", err)
	}
	if err := c.Delete("a"); err == nil {
		t.Fatal("a replayed deleted file could be deleted again")
	}
	if _, err := c.Upload("a", []byte("third")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatalf("deleting a replayed file after recreating it: %v", err)
	}
	if f := srv.Snapshot("alice")["b"]; !f.Deleted {
		t.Fatal("b not deleted")
	}
}

// TestTwoDevicesHammerOneAccount runs two devices of one account
// against overlapping names — delta syncs, forced full uploads, lists
// and raw signature requests — for the race detector, then checks that
// no name ended up holding content nobody uploaded, that every served
// signature still matches its file, and that all three ledgers balance.
func TestTwoDevicesHammerOneAccount(t *testing.T) {
	hammerOneAccount(t, ServerConfig{})
}

// hammerOneAccount runs the hammer on a server built from cfg (its
// ledger and log hook are the hammer's own; its devices ask for 512 B
// blocks) and returns each name's last acknowledged version and
// content.
func hammerOneAccount(t *testing.T, cfg ServerConfig) map[string]FileState {
	leakCheck(t)
	srvLed := &ledger.Ledger{}
	var refused atomic.Int64
	cfg.Ledger = srvLed
	cfg.Logf = func(f string, _ ...any) {
		if strings.HasPrefix(f, "refused stale-basis") {
			refused.Add(1)
		}
	}
	srv, err := OpenServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	const (
		devices = 2
		iters   = 120
		size    = 16 << 10 // past one client-side block, or every upload goes inline
	)
	names := []string{"n0", "n1", "n2"}

	var mu sync.Mutex
	uploaded := map[protocol.Fingerprint]bool{}
	acked := map[string]FileState{}
	ack := func(name string, data []byte, version uint64) {
		mu.Lock()
		defer mu.Unlock()
		if version > acked[name].Version {
			acked[name] = FileState{Version: version, Data: bytes.Clone(data)}
		}
	}
	leds := make([]*ledger.Ledger, devices)
	clients := make([]*Client, devices)
	closers := make([]func(), devices)
	for dev := range clients {
		leds[dev] = &ledger.Ledger{}
		clients[dev], closers[dev] = pipeClient(t, srv, "alice", fmt.Sprintf("dev-%d", dev), nil, WithLedger(leds[dev]), WithBlockSize(512))
	}
	base := content.Random(size, 1).Bytes()
	for _, name := range names {
		mu.Lock()
		uploaded[protocol.Sum(base)] = true
		mu.Unlock()
		st, err := clients[0].Upload(name, base)
		if err != nil {
			t.Fatal(err)
		}
		ack(name, base, st.Version)
	}
	if _, err := clients[1].List(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for dev, c := range clients {
		wg.Add(1)
		go func(dev int, c *Client) {
			defer wg.Done()
			data := append([]byte(nil), base...)
			for i := 0; i < iters; i++ {
				name := names[(i+dev)%len(names)]
				switch i % 5 {
				case 3:
					if _, err := c.List(); err != nil {
						t.Errorf("device %d list: %v", dev, err)
						return
					}
					continue
				case 4:
					id := c.ids[name]
					c.Prime(name, id, false) // full upload next
				}
				// Each device edits its own half, stamped so contents
				// never repeat: a splice of two devices' edits matches
				// nothing in uploaded.
				off := dev*size/2 + (i*97)%(size/2-8)
				copy(data[off:], fmt.Sprintf("%d:%05d", dev, i))
				mu.Lock()
				uploaded[protocol.Sum(data)] = true
				mu.Unlock()
				st, err := c.Upload(name, data)
				var perr *protocol.Error
				if errors.As(err, &perr) && perr.Code == protocol.ErrConflict {
					continue // lost maxDeltaConflicts races in a row: allowed
				}
				if err != nil {
					t.Errorf("device %d upload %s: %v", dev, name, err)
					return
				}
				ack(name, data, st.Version)
			}
		}(dev, c)
	}
	wg.Wait()

	probe := openRaw(t, srv, "alice")
	for _, name := range names {
		got, ok := srv.FileContent("alice", name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if !uploaded[protocol.Sum(got)] {
			t.Errorf("%s holds content no device uploaded", name)
		}
		if !bytes.Equal(probe.signature(name, 512), delta.Sign(got, 512).Encode()) {
			t.Errorf("%s: served signature differs from delta.Sign(current content)", name)
		}
	}
	probe.close()

	var devTotal int64
	for dev, c := range clients {
		closers[dev]()
		in, out := c.WireTotals()
		devTotal += in + out
		for _, v := range invariant.CheckLedger(in+out, leds[dev].Snapshot()) {
			t.Errorf("device %d ledger: %v", dev, v)
		}
	}
	ss := srv.Stats()
	for _, v := range invariant.CheckLedger(ss.BytesReceived+ss.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
	t.Logf("%d stale-basis deltas refused, %d delta syncs, %d full uploads", refused.Load(), ss.DeltaSyncs, ss.Uploads)
	if devTotal == 0 || ss.DeltaSyncs == 0 || ss.Uploads <= int64(len(names)) {
		t.Errorf("hammer did not exercise both paths: %d delta syncs, %d uploads", ss.DeltaSyncs, ss.Uploads)
	}
	return acked
}

// device is one client of a lost-Ack or cut test: its transport (a
// fresh net.Pipe per dial, each wrapped by the device's fault
// scheduler) and its ledger.
type device struct {
	c        *Client
	led      *ledger.Ledger
	sched    *FaultScheduler
	prevDone chan struct{}
}

func newDevice(t *testing.T, srv *Server, name string, plan FaultPlan, opts ...ClientOption) *device {
	t.Helper()
	d, err := dialDevice(func() *Server { return srv }, name, plan, opts...)
	if err != nil {
		t.Fatalf("NewClient(%s): %v", name, err)
	}
	return d
}

// dialDevice connects a device to whichever server srv returns at each
// dial, so a test can reopen a durable server under it.
func dialDevice(srv func() *Server, name string, plan FaultPlan, opts ...ClientOption) (*device, error) {
	d := &device{led: &ledger.Ledger{}, sched: NewFaultScheduler(plan)}
	dial := func() (net.Conn, error) {
		// Wait for the previous session to unwind, so whatever it
		// committed or stashed is settled before the retry asks.
		if d.prevDone != nil {
			<-d.prevDone
		}
		cp, sp := net.Pipe()
		done := make(chan struct{})
		d.prevDone = done
		s := srv()
		go func() {
			defer close(done)
			s.HandleConn(sp)
		}()
		return d.sched.Wrap(cp), nil
	}
	conn, _ := dial()
	opts = append([]ClientOption{
		WithDialer(dial), WithLedger(d.led),
		WithRetry(RetryPolicy{MaxAttempts: 6, Sleep: func(time.Duration) {}}),
	}, opts...)
	c, err := NewClient(conn, "alice", name, opts...)
	d.c = c
	return d, err
}

// arm makes the device's live connection cut after n more bytes (both
// directions), exactly as a scheduled fault would.
func (d *device) arm(n int64) {
	fc := d.c.wc.conn.(*faultConn)
	fc.mu.Lock()
	fc.budget = n
	fc.mu.Unlock()
}

// close ends the device's session and checks its ledger against its
// own wire meter.
func (d *device) close(t *testing.T, label string) int64 {
	t.Helper()
	d.c.Close()
	<-d.prevDone
	in, out := d.c.WireTotals()
	for _, v := range invariant.CheckLedger(in+out, d.led.Snapshot()) {
		t.Errorf("%s ledger: %v", label, v)
	}
	return in + out
}

// TestTwoDeviceEditScripts is the safety property of the client-held
// signature: two devices of one account, each remembering the
// signatures its own delta syncs ended on, run seeded scripts of
// in-place edits, whole-file replacements and shrinks below one block
// against shared names, over links cut at seeded byte offsets. After
// every upload the server holds exactly the uploaded bytes — a delta
// applied to any basis but its own cannot produce them — and every
// ledger equals its wire total. The seeded worlds of internal/invariant
// compose this with deletes, listings, crashes and watch devices.
func TestTwoDeviceEditScripts(t *testing.T) {
	const bs = 1024
	var total ServerStats
	var retried int
	for seed := uint64(0); seed < 60; seed++ {
		srvLed := &ledger.Ledger{}
		srv := NewServer(ServerConfig{Ledger: srvLed})
		rng := rand.New(rand.NewPCG(seed, 0x51c))
		var devs [2]*device
		copies := [2]map[string][]byte{{}, {}}
		for i := range devs {
			var plan FaultPlan // every fifth seed runs on clean links
			if seed%5 != 0 {
				plan = FaultPlan{Seed: seed*2 + uint64(i) + 1, MeanDropBytes: 2048 + int64(seed%7)*3072, MaxDrops: 1 + int(seed%3)}
			}
			devs[i] = newDevice(t, srv, fmt.Sprintf("dev-%d", i), plan, WithBlockSize(bs))
		}
		for i := 0; i < 14; i++ {
			k, name := rng.IntN(2), fmt.Sprintf("f%d", rng.IntN(3))
			cur := copies[k][name]
			switch roll := rng.IntN(8); {
			case roll == 0:
				cur = bytes.Clone(content.Random(1+rng.Int64N(bs), rng.Int64()).Bytes()) // rides inline
			case roll == 1 || cur == nil:
				cur = bytes.Clone(content.Random(int64(4*bs+rng.IntN(16*bs)), rng.Int64()).Bytes())
			default:
				cur = bytes.Clone(cur)
				for n := 1 + rng.IntN(3); n > 0; n-- {
					cur[rng.IntN(len(cur))] ^= 0x5A
				}
			}
			up, err := devs[k].c.Upload(name, cur)
			if err != nil {
				t.Fatalf("seed %d op %d: upload %s: %v", seed, i, name, err)
			}
			if up.Attempts > 1 {
				retried++
			}
			copies[k][name] = cur
			if got, ok := srv.FileContent("alice", name); !ok || !bytes.Equal(got, cur) {
				t.Fatalf("seed %d op %d: after uploading %s (%+v) the server holds other bytes", seed, i, name, up)
			}
		}
		for i, d := range devs {
			d.close(t, fmt.Sprintf("seed %d device %d", seed, i))
		}
		srv.Close()
		st := srv.Stats()
		for _, v := range invariant.CheckLedger(st.BytesReceived+st.BytesSent, srvLed.Snapshot()) {
			t.Errorf("seed %d server ledger: %v", seed, v)
		}
		total.InlineUploads += st.InlineUploads
		total.SignaturesServed += st.SignaturesServed
		total.CondDeltaConflicts += st.CondDeltaConflicts
		total.DeltaSyncs += st.DeltaSyncs
	}
	t.Logf("%d inline uploads, %d delta syncs, %d signatures served, %d deltas refused, %d uploads retried",
		total.InlineUploads, total.DeltaSyncs, total.SignaturesServed, total.CondDeltaConflicts, retried)
	if total.InlineUploads == 0 || total.DeltaSyncs <= total.SignaturesServed || total.CondDeltaConflicts == 0 || retried == 0 {
		t.Error("the scripts did not reach every path")
	}
}

// TestLostAckOfConditionalDelta cuts the link in the middle of the Ack
// of a version-conditional delta: the server committed, the client
// cannot know. Its remembered version is now a stale guess, and the
// retry must neither apply the delta a second time nor build on the
// old signature — it forgets, asks, and lands the same bytes.
func TestLostAckOfConditionalDelta(t *testing.T) {
	leakCheck(t)
	srvLed := &ledger.Ledger{}
	srv := NewServer(ServerConfig{Ledger: srvLed})
	t.Cleanup(func() { srv.Close() })
	d := newDevice(t, srv, "dev", FaultPlan{})
	v1 := content.Random(256<<10, 21).Bytes()
	flip := func(data []byte, at int) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0xFF
		return out
	}
	v2, v3, v4 := flip(v1, 10<<10), flip(v1, 100<<10), flip(v1, 200<<10)
	for _, v := range [][]byte{v1, v2} { // full upload, then a delta sync on the signature it left
		if _, err := d.c.Upload("f", v); err != nil {
			t.Fatal(err)
		}
	}
	have := d.c.sigs.get("f")
	if have == nil || have.version != 2 {
		t.Fatalf("after a delta sync the client remembers %+v, want the signature of v2", have)
	}
	// The whole DeltaMsg gets through; the cut lands inside the Ack.
	frame := protocol.EncodedSize(&protocol.DeltaMsg{
		Name: "f", Payload: delta.Compute(have.sig, v3).Encode(), BaseVersion: 2})
	d.arm(int64(frame + protocol.SizeAck()/2))
	st, err := d.c.Upload("f", v3)
	if err != nil {
		t.Fatalf("upload across the lost ack: %v", err)
	}
	// v3 by the delta whose Ack was lost, v4 by the retry's (all copy
	// references: the server already held the bytes).
	if st.Attempts != 2 || !st.DeltaSync || st.Version != 4 {
		t.Fatalf("upload across the lost ack: %+v, want a delta sync landing v4 on the second attempt", st)
	}
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v3) {
		t.Fatal("server content is not what was uploaded")
	}
	// v2 and v3 were cut on remembered signatures, v4 on a served one.
	ss := srv.Stats()
	if ss.SignaturesServed != 1 || ss.DeltaSyncs-ss.SignaturesServed != 2 || ss.CondDeltaConflicts != 0 {
		t.Fatalf("%d signatures served, %d deltas without one, %d refused: the retry reused a version it could not vouch for",
			ss.SignaturesServed, ss.DeltaSyncs-ss.SignaturesServed, ss.CondDeltaConflicts)
	}
	// The exchange that did get its Ack is remembered again.
	if st, err := d.c.Upload("f", v4); err != nil || !st.DeltaSync || st.Version != 5 {
		t.Fatalf("modify after the recovery: %+v, %v", st, err)
	}
	if ss := srv.Stats(); ss.DeltaSyncs-ss.SignaturesServed != 3 {
		t.Fatalf("modify after the recovery asked for a signature (%d deltas without one)", ss.DeltaSyncs-ss.SignaturesServed)
	}
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v4) {
		t.Fatal("server content is not what was uploaded")
	}

	wire := d.close(t, "device")
	ss = srv.Stats()
	for _, v := range invariant.CheckLedger(ss.BytesReceived+ss.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
	if got := ss.BytesReceived + ss.BytesSent; got != wire {
		t.Errorf("server wire total %d, device's %d", got, wire)
	}
}

// TestFullUploadRemembersItsSignature: every acknowledged full upload —
// content sent whole, a probed dedup hit that sends none, one resumed
// after a cut inside its payload — leaves the client the signature of
// the bytes it holds, field for field delta.Sign at the file's
// heldBlockSize, at the version the Ack reported, so the first modify
// needs no SigRequest. The server serves that version signed at
// BlockSizeFor: the same signature below 1 MiB, a coarser one of the
// same bytes from there (4 MiB: 2 KiB blocks against the held 512 B).
func TestFullUploadRemembersItsSignature(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	reg := obs.NewRegistry()
	d := newDevice(t, srv, "dev", FaultPlan{}, WithClientMetrics(reg))
	probe := openRaw(t, srv, "alice")
	check := func(step, name string, data []byte, st UploadStats) {
		t.Helper()
		have := d.c.sigs.get(name)
		if have == nil || have.version != st.Version {
			t.Fatalf("%s: client remembers %+v, want a signature of v%d", step, have, st.Version)
		}
		want := delta.Sign(data, heldBlockSize(int64(len(data))))
		if !reflect.DeepEqual(have.sig, want) {
			t.Fatalf("%s: remembered signature (%d blocks of %d B) is not delta.Sign of the uploaded bytes (%d of %d B)",
				step, len(have.sig.Blocks), have.sig.BlockSize, len(want.Blocks), want.BlockSize)
		}
		want = delta.Sign(data, delta.BlockSizeFor(int64(len(data))))
		if served := probe.served(name, 0); served.Version != st.Version || !bytes.Equal(served.Payload, want.Encode()) {
			t.Fatalf("%s: the server serves v%d as other than delta.Sign at %d B of what the client uploaded as v%d",
				step, served.Version, want.BlockSize, st.Version)
		}
	}

	data := content.Random(256<<10, 1).Bytes()
	st, err := d.c.Upload("a", data)
	if err != nil || st.DedupHit || st.Attempts != 1 {
		t.Fatalf("full upload: %+v, %v", st, err)
	}
	check("full upload", "a", data, st)

	st, err = d.c.Upload("b", data)
	if err != nil || !st.DedupHit || st.PayloadBytes != 0 {
		t.Fatalf("probed dedup hit: %+v, %v", st, err)
	}
	check("probed dedup hit", "b", data, st)

	other := content.Random(256<<10, 1<<30).Bytes()
	d.arm(100 << 10) // inside the payload
	st, err = d.c.Upload("c", other)
	if err != nil || st.Attempts != 2 || st.ResumedFrom == 0 {
		t.Fatalf("resumed upload: %+v, %v", st, err)
	}
	check("resumed upload", "c", other, st)

	large := content.Random(4<<20, 2).Bytes()
	st, err = d.c.Upload("d", large)
	if err != nil || st.DedupHit || st.Attempts != 1 {
		t.Fatalf("4 MiB full upload: %+v, %v", st, err)
	}
	check("4 MiB full upload", "d", large, st)
	if bs := d.c.sigs.get("d").sig.BlockSize; bs != 512 {
		t.Fatalf("4 MiB file held at %d B blocks, want 512", bs)
	}
	// One join per acknowledged upload; the attempt cut short had none.
	if n := reg.Histogram("syncnet_client_sign_wait_us", "").Count(); n != 4 {
		t.Fatalf("sign wait observed %d times, want 4", n)
	}

	probe.close()
	d.close(t, "device")
	if ss := srv.Stats(); ss.SignaturesServed != 4 || ss.Resumes != 1 {
		t.Fatalf("%d signatures served, %d resumes; want only the probe's 4 and 1", ss.SignaturesServed, ss.Resumes)
	}
}

// fullUploadBytes is what a first-attempt full upload of data under
// name, neither compressed nor a dedup hit, puts on the wire in both
// directions up to and including its Commit.
func fullUploadBytes(name string, data []byte) int64 {
	n := protocol.EncodedSize(&protocol.IndexUpdate{Name: name, Size: int64(len(data))}) +
		protocol.EncodedSize(&protocol.IndexReply{}) +
		protocol.EncodedSize(&protocol.Commit{})
	for off := 0; off < len(data); off += DataPieceSize {
		n += protocol.EncodedSize(&protocol.Data{Payload: data[off:min(off+DataPieceSize, len(data))]})
	}
	return int64(n)
}

// TestLostAckOfFullUpload cuts the link inside the Ack of a full
// upload, on a client that does not retry: the server committed, the
// client cannot know at which version, so it remembers no signature.
// Once it has reconnected and learned the file from a listing, its
// modify asks for the signature and lands, with nothing refused.
func TestLostAckOfFullUpload(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	d := newDevice(t, srv, "dev", FaultPlan{}, WithRetry(RetryPolicy{MaxAttempts: 1}))
	v1 := content.Random(256<<10, 31).Bytes()
	d.arm(fullUploadBytes("f", v1) + int64(protocol.SizeAck()/2))
	if st, err := d.c.Upload("f", v1); err == nil {
		t.Fatalf("upload across the lost ack: %+v, want the cut to surface", st)
	}
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v1) {
		t.Fatal("the cut landed before the commit: the server does not hold the upload")
	}
	if have := d.c.sigs.get("f"); have != nil {
		t.Fatalf("an unacknowledged upload left a remembered signature of v%d", have.version)
	}

	if err := d.c.reconnect(2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.List(); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte(nil), v1...)
	v2[1000] ^= 0xFF
	st, err := d.c.Upload("f", v2)
	if err != nil || !st.DeltaSync || st.Version != 2 {
		t.Fatalf("modify after the lost ack: %+v, %v", st, err)
	}
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v2) {
		t.Fatal("server content is not what was uploaded")
	}
	if ss := srv.Stats(); ss.SignaturesServed != 1 || ss.CondDeltaConflicts != 0 {
		t.Fatalf("%d signatures served, %d deltas refused; want 1 and 0", ss.SignaturesServed, ss.CondDeltaConflicts)
	}
	d.close(t, "device")
}

// TestFailedFullUploadLeavesNoSigner: the signature a full upload
// computes beside its exchange is joined on every return path, so a
// failed upload returns with no signing goroutine left behind.
func TestFailedFullUploadLeavesNoSigner(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	// 64 B blocks make Sign several times slower than the MD5 of the
	// whole file that precedes the first request.
	c, closeC := pipeClient(t, srv, "alice", "dev", nil, WithBlockSize(64))
	defer closeC()
	c.wc.conn.Close() // the first request fails, long before Sign could finish
	if _, err := c.Upload("f", content.Random(4<<20, 1).Bytes()); err == nil {
		t.Fatal("upload on a closed connection succeeded")
	}
	// A joined signer may still be unwinding out of WaitGroup.Done; one
	// still inside Sign was not joined.
	for _, g := range syncnetGoroutines("") {
		if strings.Contains(g, "fullUpload") && strings.Contains(g, "delta.Sign(") {
			t.Fatalf("a signer outlived its failed upload:\n\n%s", g)
		}
	}
	if c.sigs.get("f") != nil {
		t.Fatal("a failed upload left a remembered signature")
	}
}

// TestCutInsideInlineBundle cuts an inline Upload twice: first inside
// the Bundle frame itself (the server never sees a whole request, the
// retry is the first commit), then inside the BundleReply (the server
// committed, the retry re-sends and collapses into a dedup hit). Either
// way the content is right and every byte of both attempts is
// accounted for, the second send as retransmit.
func TestCutInsideInlineBundle(t *testing.T) {
	leakCheck(t)
	srvLed := &ledger.Ledger{}
	srv := NewServer(ServerConfig{Ledger: srvLed})
	t.Cleanup(func() { srv.Close() })
	d := newDevice(t, srv, "dev", FaultPlan{})
	data := content.Random(3000, 5).Bytes()
	frame := int64(protocol.EncodedSize(&protocol.Bundle{Entries: []protocol.BundleEntry{{
		Name: "note", Size: int64(len(data)), Payload: data}}}))

	d.arm(frame / 2)
	st, err := d.c.Upload("note", data)
	if err != nil {
		t.Fatalf("upload cut inside the bundle frame: %v", err)
	}
	if st.Attempts != 2 || st.DedupHit || st.Version != 1 {
		t.Fatalf("upload cut inside the bundle frame: %+v, want a first commit on the second attempt", st)
	}

	data2 := content.Random(3000, 6).Bytes()
	d.arm(frame + 3) // the request gets through, the reply does not
	st, err = d.c.Upload("note", data2)
	if err != nil {
		t.Fatalf("upload cut inside the bundle reply: %v", err)
	}
	if st.Attempts != 2 || !st.DedupHit || st.Version != 3 || st.PayloadBytes != len(data2) {
		t.Fatalf("upload cut inside the bundle reply: %+v, want the re-send to collapse into a dedup hit at v3", st)
	}
	if got, _ := srv.FileContent("alice", "note"); !bytes.Equal(got, data2) {
		t.Fatal("server content is not what was uploaded")
	}
	if ss := srv.Stats(); ss.InlineUploads != 3 {
		t.Fatalf("%d inline uploads committed, want 3", ss.InlineUploads)
	}

	wire := d.close(t, "device")
	if d.led.Get(ledger.Retransmit) < 2*int64(len(data)) {
		t.Errorf("two bundles were re-sent but only %d bytes are tagged retransmit", d.led.Get(ledger.Retransmit))
	}
	ss := srv.Stats()
	for _, v := range invariant.CheckLedger(ss.BytesReceived+ss.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
	if got := ss.BytesReceived + ss.BytesSent; got != wire {
		t.Errorf("server wire total %d, device's %d", got, wire)
	}
}
