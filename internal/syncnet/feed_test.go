package syncnet

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
)

// feedDevice is a device that dials whichever server is current, so a
// test can reopen the durable server under it.
type feedDevice struct {
	*device
}

func newFeedDevice(srv func() *Server, name string, plan FaultPlan) (*feedDevice, error) {
	d, err := dialDevice(srv, name, plan)
	return &feedDevice{d}, err
}

// TestListFeedConverges is the change feed's safety property: two
// devices of one account poll a durable server between seeded uploads
// and deletes, over links cut inside feed requests and inside the
// listings that answer them, and the server is closed and reopened
// mid-script — a new epoch under every cursor the devices hold. After
// every List the device's listing is the server's state, entry for
// entry, and the server answered it incrementally exactly when the
// device's cursor is from the current server lifetime. The seeded
// worlds of internal/invariant compose this with crashes, the listing
// size bound and watch devices.
func TestListFeedConverges(t *testing.T) {
	leakCheck(t)
	var incremental, full, cutInRequest, cutInListing int
	for seed := uint64(0); seed < 40; seed++ {
		var answered atomic.Bool // whether the server's last listing was incremental
		cfg := ServerConfig{StateDir: t.TempDir(), Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "listing:") {
				answered.Store(args[len(args)-1].(bool))
			}
		}}
		srv, err := OpenServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 0xfeed))
		life, lives := 1, [2]int{} // server lifetimes: the current one, each device's last listing's
		var devs [2]*feedDevice
		for i := range devs {
			var plan FaultPlan // every fifth seed runs on clean links
			if seed%5 != 0 {
				plan = FaultPlan{Seed: seed*2 + uint64(i) + 1, MeanDropBytes: 3000 + int64(seed%7)*2048, MaxDrops: 1 + int(seed%3)}
			}
			if devs[i], err = newFeedDevice(func() *Server { return srv }, fmt.Sprintf("dev-%d", i), plan); err != nil {
				t.Fatal(err)
			}
		}
		reopenAt, live := 6+rng.IntN(6), map[string]bool{}
		for i := 0; i < 18; i++ {
			k, name := rng.IntN(2), fmt.Sprintf("f%d", rng.IntN(5))
			d := devs[k]
			_, known := d.c.ids[name]
			known = known && live[name] // a client deletes by identity
			switch roll := rng.IntN(10); {
			case i == reopenAt:
				srv.Close()
				if srv, err = OpenServer(cfg); err != nil {
					t.Fatalf("seed %d: reopen: %v", seed, err)
				}
				life++
			case roll < 8 && roll >= 4 || roll >= 8 && !known:
				data := content.Random(1+rng.Int64N(4096), rng.Int64()).Bytes()
				if _, err := d.c.Upload(name, data); err != nil {
					t.Fatalf("seed %d op %d: upload %s: %v", seed, i, name, err)
				}
				live[name] = true
			case roll >= 8:
				if err := d.c.Delete(name); err != nil {
					t.Fatalf("seed %d op %d: delete %s: %v", seed, i, name, err)
				}
				live[name] = false
			default:
				// One poll in two is cut inside the 21-byte request or
				// inside the Listing (at least 26 bytes) that answers it.
				var cut int64
				if roll < 2 {
					cut = 1 + rng.Int64N(46)
					d.arm(cut)
				}
				drops := d.sched.Stats().Drops
				got, err := d.c.List()
				if err != nil {
					t.Fatalf("seed %d op %d: list: %v", seed, i, err)
				}
				if d.sched.Stats().Drops > drops && cut > 21 {
					cutInListing++
				} else if d.sched.Stats().Drops > drops && cut > 0 {
					cutInRequest++
				}
				snap := srv.Snapshot("alice")
				want := make([]protocol.ListEntry, 0, len(snap))
				for name, f := range snap {
					want = append(want, protocol.ListEntry{FileID: f.ID, Name: name, Size: int64(len(f.Data)),
						Version: f.Version, Deleted: f.Deleted, FileHash: protocol.Sum(f.Data)})
				}
				slices.SortFunc(want, func(a, b protocol.ListEntry) int { return strings.Compare(a.Name, b.Name) })
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: listed\n %v\nserver holds\n %v", seed, i, got, want)
				}
				if again := lives[k] == life; answered.Load() != again {
					t.Fatalf("seed %d op %d: incremental %v, but the cursor is from this server lifetime: %v", seed, i, answered.Load(), again)
				} else if again {
					incremental++
				} else {
					full++
				}
				lives[k] = life
			}
		}
		for i, d := range devs {
			d.close(t, fmt.Sprintf("seed %d device %d", seed, i))
		}
		srv.Close()
	}
	t.Logf("%d incremental and %d full listings, %d polls cut inside the request and %d inside the listing",
		incremental, full, cutInRequest, cutInListing)
	if incremental == 0 || full == 0 || cutInRequest == 0 || cutInListing == 0 {
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
		Name: "kept", Size: int64(len(kept)), FileHash: protocol.Sum(kept), Payload: kept}}}); reply.Type() != protocol.TypeBundleReply {
		t.Fatalf("seeding bundle: %#v", reply)
	}
	if _, err := r.c.List(); err != nil { // the reader holds a cursor
		t.Fatal(err)
	}
	reader = r

	srv.FailStateAt(srv.StateLogBytes() + 1) // the next group commit tears
	ghost := []byte("committed, listed, never synced")
	reply := writer.roundTrip(&protocol.Bundle{Entries: []protocol.BundleEntry{
		{Name: "ghost", Size: int64(len(ghost)), FileHash: protocol.Sum(ghost), Payload: ghost},
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
		after = append(after, protocol.BundleEntry{Name: name, Size: int64(len(name)), FileHash: protocol.Sum([]byte(name)), Payload: []byte(name)})
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
				return protocol.BundleEntry{Name: fmt.Sprintf("f%06d", i), Size: int64(len(data)), FileHash: protocol.Sum(data), Payload: data}
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
