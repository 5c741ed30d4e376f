package syncnet

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// readTap records every byte a client reads off one connection, below
// the fault wrapper: exactly what the client consumed.
type readTap struct {
	net.Conn
	buf bytes.Buffer
}

func (r *readTap) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.buf.Write(p[:n])
	return n, err
}

// listingFrames returns the complete Listing frames in the captured
// stream (a torn trailing frame is what a cut leaves behind).
func (r *readTap) listingFrames() [][]byte {
	var out [][]byte
	for b := r.buf.Bytes(); len(b) >= frameHeaderSize; {
		n := frameHeaderSize + int(binary.LittleEndian.Uint32(b[1:5]))
		if len(b) < n {
			break
		}
		if protocol.MsgType(b[0]) == protocol.TypeListing {
			out = append(out, b[:n])
		}
		b = b[n:]
	}
	return out
}

// feedDevice is a device of the change-feed harness: it dials whichever
// server is current, so the script can reopen the durable server under
// it, and taps every connection it reads from.
type feedDevice struct {
	*device
	taps []*readTap
	// seen is each name's version in the last listing this device
	// applied, and gen the server generation that listing came from
	// (-1: none yet).
	seen map[string]uint64
	gen  int
}

func newFeedDevice(srv func() *Server, name string, plan FaultPlan) (*feedDevice, error) {
	d := &feedDevice{
		device: &device{led: &ledger.Ledger{}, sched: NewFaultScheduler(plan)},
		gen:    -1,
	}
	dial := func() (net.Conn, error) {
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
		tap := &readTap{Conn: cp}
		d.taps = append(d.taps, tap)
		return d.sched.Wrap(tap), nil
	}
	conn, _ := dial()
	c, err := NewClient(conn, "alice", name, WithDialer(dial), WithLedger(d.led), WithBlockSize(feedBlock),
		WithRetry(RetryPolicy{MaxAttempts: 6, Sleep: func(time.Duration) {}}))
	d.c = c
	return d, err
}

// feedBlock is the harness's delta block size: files of one to a few
// blocks take the inline, delta and full paths alike.
const feedBlock = 1024

type feedOpKind int

const (
	feedList feedOpKind = iota
	feedPut
	feedEdit
	feedDelete
	feedReopen
)

// feedOp is one step of a change-feed script. A List may arm the
// device's link to cut after cut more bytes: inside the 21-byte feed
// request, or inside the Listing that answers it (every feed Listing
// is at least 26 bytes).
type feedOp struct {
	dev  int
	kind feedOpKind
	name string
	size int
	seed int64
	cut  int64
}

func (op feedOp) String() string {
	return fmt.Sprintf("{dev %d kind %d %s size %d cut %d}", op.dev, op.kind, op.name, op.size, op.cut)
}

func genFeedOps(seed uint64, n int) []feedOp {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	reopenAt := n/3 + rng.IntN(n/3)
	ops := make([]feedOp, n)
	for i := range ops {
		op := feedOp{dev: rng.IntN(2), name: fmt.Sprintf("f%d", rng.IntN(6)), seed: rng.Int64()}
		switch r := rng.IntN(20); {
		case i == reopenAt:
			op.kind = feedReopen
		case r < 8:
			op.kind = feedList
			switch r % 4 {
			case 0:
				op.cut = 1 + rng.Int64N(20)
			case 1:
				op.cut = 21 + 1 + rng.Int64N(25)
			}
		case r < 12:
			op.kind, op.size = feedPut, 1+rng.IntN(4*feedBlock)
		case r < 17:
			op.kind = feedEdit
		default:
			op.kind = feedDelete
		}
		ops[i] = op
	}
	return ops
}

// feedCoverage counts what a script exercised.
type feedCoverage struct {
	incremental, full, cutInRequest, cutInListing, reopens int
}

func (fc *feedCoverage) add(o feedCoverage) {
	fc.incremental += o.incremental
	fc.full += o.full
	fc.cutInRequest += o.cutInRequest
	fc.cutInListing += o.cutInListing
	fc.reopens += o.reopens
}

// listEntryWireSize is one Listing entry's encoded size.
func listEntryWireSize(name string) int {
	return protocol.EncodedSize(&protocol.Listing{Entries: []protocol.ListEntry{{Name: name}}}) -
		protocol.EncodedSize(&protocol.Listing{})
}

// runFeedScript replays ops from scratch — a fresh durable server in a
// fresh directory under base, two devices of one account over net.Pipe
// with seeded link cuts — and returns every violation: after each List
// the device's result must be the server's state, the Listing it
// applied must be no larger than the frame's fixed overhead plus the
// entries of the files committed since the device's previous listing in
// the same server lifetime, and all three ledgers must balance.
func runFeedScript(base string, seed uint64, ops []feedOp) (vs []string, cov feedCoverage) {
	violate := func(i int, format string, args ...any) {
		vs = append(vs, fmt.Sprintf("op %d %v: ", i, ops[i])+fmt.Sprintf(format, args...))
	}
	dir, err := os.MkdirTemp(base, "feed")
	if err != nil {
		return []string{err.Error()}, cov
	}
	defer os.RemoveAll(dir)
	srvLed := &ledger.Ledger{}
	cfg := ServerConfig{StateDir: dir, Ledger: srvLed, BlockSize: feedBlock}
	srv, err := OpenServer(cfg)
	if err != nil {
		return []string{err.Error()}, cov
	}
	gen := 0
	var srvWire int64
	closeServer := func() {
		srv.Close()
		st := srv.Stats()
		srvWire += st.BytesReceived + st.BytesSent
	}
	devs := make([]*feedDevice, 2)
	for i := range devs {
		var plan FaultPlan // every fifth seed runs on clean links
		if seed%5 != 0 {
			plan = FaultPlan{Seed: seed*2 + uint64(i) + 1, MeanDropBytes: 3000 + int64(seed%7)*2048, MaxDrops: 1 + int(seed%3)}
		}
		if devs[i], err = newFeedDevice(func() *Server { return srv }, fmt.Sprintf("dev-%d", i), plan); err != nil {
			closeServer()
			return []string{err.Error()}, cov
		}
	}
	overhead := protocol.EncodedSize(&protocol.Listing{})
	truth := map[string][]byte{} // live names' content

	for i, op := range ops {
		d := devs[op.dev]
		if op.kind == feedReopen {
			closeServer()
			if srv, err = OpenServer(cfg); err != nil {
				violate(i, "reopen: %v", err)
				return vs, cov
			}
			gen++
			cov.reopens++
			continue
		}
		_, hasID := d.c.FileID(op.name)
		cur, live := truth[op.name]
		kind := op.kind
		if kind == feedEdit && !live {
			kind = feedPut
		}
		if kind == feedDelete && (!live || !hasID) {
			kind = feedList
		}
		switch kind {
		case feedPut, feedEdit:
			data := content.Random(int64(max(op.size, 1)), op.seed).Bytes()
			if kind == feedEdit {
				data = append([]byte(nil), cur...)
				data[int(uint64(op.seed)%uint64(len(data)))] ^= 0x5A
			}
			if _, err := d.c.Upload(op.name, data); err != nil {
				violate(i, "upload: %v", err)
				continue
			}
			truth[op.name] = data
			if got, _ := srv.FileContent("alice", op.name); !bytes.Equal(got, data) {
				violate(i, "server does not hold the uploaded bytes")
			}
		case feedDelete:
			if err := d.c.Delete(op.name); err != nil {
				violate(i, "delete: %v", err)
				continue
			}
			delete(truth, op.name)
		case feedList:
			vs = append(vs, checkFeedList(d, i, op, srv, gen, overhead, &cov)...)
		}
	}

	var devWire int64
	for i, d := range devs {
		d.c.Close()
		<-d.prevDone
		in, out := d.c.WireTotals()
		devWire += in + out
		for _, v := range invariant.CheckLedger(in+out, d.led.Snapshot()) {
			vs = append(vs, fmt.Sprintf("device %d ledger: %v", i, v))
		}
	}
	closeServer()
	for _, v := range invariant.CheckLedger(srvWire, srvLed.Snapshot()) {
		vs = append(vs, fmt.Sprintf("server ledger: %v", v))
	}
	// net.Pipe is synchronous: cut or not, the servers metered exactly
	// the bytes the two devices did.
	if srvWire != devWire {
		vs = append(vs, fmt.Sprintf("servers' wire total %d, devices' %d", srvWire, devWire))
	}
	return vs, cov
}

// checkFeedList runs one List on d (cut as the op says) and checks it.
func checkFeedList(d *feedDevice, i int, op feedOp, srv *Server, gen, overhead int, cov *feedCoverage) (vs []string) {
	violate := func(format string, args ...any) {
		vs = append(vs, fmt.Sprintf("op %d %v: ", i, op)+fmt.Sprintf(format, args...))
	}
	// The live connection sits at a frame boundary between operations:
	// from here on the taps hold this List's reads only.
	d.taps = d.taps[len(d.taps)-1:]
	d.taps[0].buf.Reset()
	drops := d.sched.Stats().Drops
	if op.cut > 0 {
		d.arm(op.cut)
	}
	got, err := d.c.List()
	if err != nil {
		violate("list: %v", err)
		return vs
	}
	if d.sched.Stats().Drops > drops {
		switch {
		case op.cut > 21:
			cov.cutInListing++
		case op.cut > 0:
			cov.cutInRequest++
		}
	}

	snap := srv.Snapshot("alice")
	want := make([]protocol.ListEntry, 0, len(snap))
	for name, f := range snap {
		want = append(want, protocol.ListEntry{FileID: f.ID, Name: name, Size: int64(len(f.Data)),
			Version: f.Version, Deleted: f.Deleted, FileHash: md5.Sum(f.Data)})
	}
	slices.SortFunc(want, func(a, b protocol.ListEntry) int { return strings.Compare(a.Name, b.Name) })
	if !slices.Equal(got, want) {
		violate("listed\n %v\nserver holds\n %v", got, want)
	}

	var frames [][]byte
	for _, tap := range d.taps {
		frames = append(frames, tap.listingFrames()...)
	}
	if len(frames) != 1 {
		violate("read %d complete Listing frames, want 1", len(frames))
		return vs
	}
	m, err := protocol.Decode(frames[0])
	if err != nil {
		violate("applied Listing does not decode: %v", err)
		return vs
	}
	incremental := m.(*protocol.Listing).Incremental
	if d.gen == gen {
		// Polled before in this server lifetime: the reply may carry the
		// files committed since then, and nothing else.
		bound := overhead
		for _, en := range want {
			if v, ok := d.seen[en.Name]; !ok || v != en.Version {
				bound += listEntryWireSize(en.Name)
			}
		}
		if len(frames[0]) > bound {
			violate("Listing of %d bytes exceeds %d, the overhead plus the entries changed since the last poll", len(frames[0]), bound)
		}
		if !incremental {
			violate("a cursor from this server lifetime was answered with a full listing")
		}
		cov.incremental++
	} else {
		if incremental {
			violate("first poll in this server lifetime was answered incrementally")
		}
		cov.full++
	}
	d.seen = make(map[string]uint64, len(want))
	for _, en := range want {
		d.seen[en.Name] = en.Version
	}
	d.gen = gen
	return vs
}

// TestListFeedConverges is the change feed's safety property: two
// devices of one account run seeded scripts of uploads, edits, deletes
// and polls against a durable server that is closed and reopened
// mid-script — a new epoch under every cursor the devices hold — over
// links that cut inside feed requests and inside the listings that
// answer them. After every List the device's listing is the server's
// state, entry for entry; a poll within one server lifetime costs the
// wire no more than the files changed since the device's previous
// poll; and every ledger balances exactly. A failing script is shrunk
// to its shortest failing prefix.
func TestListFeedConverges(t *testing.T) {
	leakCheck(t)
	base := t.TempDir()
	var total feedCoverage
	for seed := uint64(0); seed < 120; seed++ {
		ops := genFeedOps(seed, 18)
		vs, cov := runFeedScript(base, seed, ops)
		if len(vs) > 0 {
			k := invariant.ShrinkPrefix(len(ops), func(k int) bool {
				vs, _ := runFeedScript(base, seed, ops[:k])
				return len(vs) > 0
			})
			t.Fatalf("seed %d: %d violation(s):\n%s\nminimal failing prefix (%d of %d ops): %v",
				seed, len(vs), strings.Join(vs, "\n"), k, len(ops), ops[:k])
		}
		total.add(cov)
	}
	t.Logf("120 scripts: %d incremental and %d full listings, %d polls cut inside the request and %d inside the listing, %d reopens",
		total.incremental, total.full, total.cutInRequest, total.cutInListing, total.reopens)
	if total.incremental == 0 || total.full == 0 || total.cutInRequest == 0 || total.cutInListing == 0 || total.reopens == 0 {
		t.Error("the scripts did not reach every path")
	}
}

// TestListFeedForgetsUnsyncedCommit: a listing may show a commit
// before its group commit's fsync — and that fsync may then crash. The
// reopened server must not leave the device believing in the lost
// file: its epoch is new, so the device's next poll is a full listing
// of what survived.
func TestListFeedForgetsUnsyncedCommit(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	var reader *feedDevice
	var sawGhost bool
	var hookErr error
	srv, err := OpenServer(ServerConfig{StateDir: dir, Logf: func(format string, _ ...any) {
		// A bad bundle entry is logged outside the lock, after the good
		// entry before it was committed and before the bundle's fsync.
		if !strings.HasPrefix(format, "bundle entry") || reader == nil {
			return
		}
		entries, err := reader.c.List()
		hookErr = err
		for _, en := range entries {
			sawGhost = sawGhost || en.Name == "ghost"
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	current := srv
	r, err := newFeedDevice(func() *Server { return current }, "reader", FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	writer := openRaw(t, srv, "alice")
	kept := []byte("acknowledged before the crash")
	if reply := writer.roundTrip(&protocol.Bundle{Entries: []protocol.BundleEntry{{
		Name: "kept", Size: int64(len(kept)), FileHash: md5.Sum(kept), Payload: kept}}}); reply.Type() != protocol.TypeBundleReply {
		t.Fatalf("seeding bundle: %#v", reply)
	}
	if _, err := r.c.List(); err != nil { // the reader holds a cursor
		t.Fatal(err)
	}
	reader = r

	srv.FailStateAt(srv.StateLogBytes() + 1) // the next group commit tears
	ghost := []byte("committed, listed, never synced")
	reply := writer.roundTrip(&protocol.Bundle{Entries: []protocol.BundleEntry{
		{Name: "ghost", Size: int64(len(ghost)), FileHash: md5.Sum(ghost), Payload: ghost},
		{Name: "bad", Size: 3, Payload: []byte("abc")}, // hash mismatch
	}})
	reader = nil
	if e, ok := reply.(*protocol.Error); !ok || e.Code != protocol.ErrInternal {
		t.Fatalf("bundle across the torn commit: %#v, want the crash reported", reply)
	}
	if hookErr != nil || !sawGhost {
		t.Fatalf("listing between commit and fsync: saw ghost %v, %v — the scenario did not happen", sawGhost, hookErr)
	}
	writer.conn.Close()
	if err := <-writer.done; !errors.Is(err, ErrServerCrashed) {
		t.Fatalf("writer session: %v, want a crash", err)
	}
	srv.Close()

	current, err = OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer current.Close()
	// Two commits after the reopen bring the account's sequence back to
	// the reader's cursor: only the epoch tells the cursor is stale.
	writer = openRaw(t, current, "alice")
	var after []protocol.BundleEntry
	for _, name := range []string{"after1", "after2"} {
		after = append(after, protocol.BundleEntry{Name: name, Size: int64(len(name)), FileHash: md5.Sum([]byte(name)), Payload: []byte(name)})
	}
	writer.roundTrip(&protocol.Bundle{Entries: after})
	writer.close()
	entries, err := r.c.List()
	if err != nil {
		t.Fatalf("list after reopen: %v", err)
	}
	snap := current.Snapshot("alice")
	if _, ok := snap["ghost"]; ok {
		t.Fatal("the torn commit survived the crash")
	}
	var names []string
	for _, en := range entries {
		names = append(names, en.Name)
	}
	if !slices.Equal(names, []string{"after1", "after2", "kept"}) || len(snap) != 3 {
		t.Fatalf("after reopen the reader lists %v; the server holds %d files", names, len(snap))
	}
	r.c.Close()
	<-r.prevDone
}

// TestListFeedCursorRules drives the feed by hand: the first poll and
// every cursor the server did not issue in this lifetime — another
// epoch, a sequence number ahead of the account's — are answered with
// the full listing and counted as resyncs; an issued cursor gets
// exactly the files committed since.
func TestListFeedCursorRules(t *testing.T) {
	leakCheck(t)
	reg := obs.NewRegistry()
	srv := NewServer(ServerConfig{Metrics: reg})
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "writer", nil)
	defer closeC()
	for _, name := range []string{"c", "a", "b"} {
		if _, err := c.Upload(name, []byte("v1 of "+name)); err != nil {
			t.Fatal(err)
		}
	}
	raw := openRaw(t, srv, "alice")
	defer raw.close()
	resyncs := reg.Counter("syncd_listing_resyncs_total", "")
	list := func(label string, req *protocol.ListRequest, wantIncremental bool, wantNames ...string) *protocol.Listing {
		t.Helper()
		l, ok := raw.roundTrip(req).(*protocol.Listing)
		if !ok || l.Incremental != wantIncremental {
			t.Fatalf("%s: %#v, want a listing with incremental=%v", label, l, wantIncremental)
		}
		var names []string
		for _, en := range l.Entries {
			names = append(names, en.Name)
		}
		if !slices.Equal(names, wantNames) {
			t.Fatalf("%s: listed %v, want %v", label, names, wantNames)
		}
		return l
	}

	first := list("first poll", &protocol.ListRequest{}, false, "a", "b", "c")
	epoch, seq := first.Epoch, first.Seq
	if epoch == 0 || seq != 3 {
		t.Fatalf("first poll's cursor (%d, %d), want a nonzero epoch and seq 3", epoch, seq)
	}
	list("nothing changed", &protocol.ListRequest{Epoch: epoch, Since: seq}, true)
	if _, err := c.Upload("b", []byte("v2 of b")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("c"); err != nil {
		t.Fatal(err)
	}
	next := list("two commits since", &protocol.ListRequest{Epoch: epoch, Since: seq}, true, "b", "c")
	if !next.Entries[1].Deleted || next.Seq != seq+2 {
		t.Fatalf("two commits since: %+v", next)
	}
	list("an older cursor", &protocol.ListRequest{Epoch: epoch, Since: 1}, true, "a", "b", "c")
	list("another epoch", &protocol.ListRequest{Epoch: epoch ^ 1, Since: seq}, false, "a", "b", "c")
	list("a cursor ahead of the account", &protocol.ListRequest{Epoch: epoch, Since: next.Seq + 1}, false, "a", "b", "c")
	if got := resyncs.Value(); got != 3 {
		t.Fatalf("%d resyncs counted, want 3 (first poll, foreign epoch, cursor ahead)", got)
	}

	if h := reg.Histogram("syncd_listing_entries", ""); h.Count() != 6 || h.Sum() != 3+0+2+3+3+3 {
		t.Fatalf("syncd_listing_entries: %d listings, %d entries; want 6 and 14", h.Count(), h.Sum())
	}
}

// BenchmarkListFeed polls an account of n files after one commit: the
// cost of an incremental List — server lock hold, encoding, wire — is
// the changed file's, so ns/op is flat from a thousand files to a
// hundred thousand. (Client.List on top of this returns a copy of its
// n-entry mirror, which is memory, not wire or server time.)
func BenchmarkListFeed(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("files=%d", n), func(b *testing.B) {
			srv := NewServer(ServerConfig{})
			defer srv.Close()
			exchange := func(conn net.Conn, m protocol.Message) protocol.Message {
				if _, err := conn.Write(protocol.Encode(m)); err != nil {
					b.Fatal(err)
				}
				reply, err := protocol.ReadMessage(conn)
				if err != nil {
					b.Fatal(err)
				}
				return reply
			}
			session := func() net.Conn {
				cp, sp := net.Pipe()
				go srv.HandleConn(sp)
				if _, err := cp.Write(protocol.Encode(&protocol.Hello{User: "alice", Device: "bench"})); err != nil {
					b.Fatal(err)
				}
				return cp
			}
			writer, reader := session(), session()
			defer writer.Close()
			defer reader.Close()
			entry := func(i int, v byte) protocol.BundleEntry {
				data := []byte{v, byte(i), byte(i >> 8), byte(i >> 16)}
				return protocol.BundleEntry{Name: fmt.Sprintf("f%06d", i), Size: int64(len(data)), FileHash: md5.Sum(data), Payload: data}
			}
			for lo := 0; lo < n; lo += 1000 {
				bundle := &protocol.Bundle{}
				for i := lo; i < min(lo+1000, n); i++ {
					bundle.Entries = append(bundle.Entries, entry(i, 0))
				}
				exchange(writer, bundle)
			}
			l := exchange(reader, &protocol.ListRequest{}).(*protocol.Listing)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exchange(writer, &protocol.Bundle{Entries: []protocol.BundleEntry{entry(0, byte(i+1))}})
				l = exchange(reader, &protocol.ListRequest{Epoch: l.Epoch, Since: l.Seq}).(*protocol.Listing)
				if !l.Incremental || len(l.Entries) != 1 {
					b.Fatalf("poll after one commit: incremental=%v with %d entries", l.Incremental, len(l.Entries))
				}
			}
		})
	}
}
