package syncnet

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/delta"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// TestUploadRoundTripBudget pins how many replies a lockstep Upload
// waits for, per case, over loopback TCP — counted, not timed, from
// the WithClientMetrics reply-wait histogram: one for a file that fits
// a delta block (new name or known), two for a larger new file (dedup
// probe, then content), one for every modify of a known large file —
// the first included, since the full upload left its signature behind,
// and a listing in between included, since it shows the file at the
// version the client remembers the signature of — two once this client
// replaced the file whole through a bundle (bundles leave no signature:
// signature, then delta), and three when another device committed in
// between (refusal, signature, delta) — with the right content on the
// server every time and exact ledgers on both sides.
func TestUploadRoundTripBudget(t *testing.T) {
	srvLed := &ledger.Ledger{}
	srv, dial := startServer(t, ServerConfig{Ledger: srvLed})
	reg := obs.NewRegistry()
	led := &ledger.Ledger{}
	a, _ := dial("alice", WithClientMetrics(reg), WithLedger(led))
	b, _ := dial("alice")
	waits := reg.Histogram("syncnet_client_reply_wait_us", "")

	upload := func(step, name string, data []byte, wantReplies int64, wantDelta bool) UploadStats {
		t.Helper()
		before := waits.Count()
		st, err := a.Upload(name, data)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := waits.Count() - before; got != wantReplies {
			t.Errorf("%s: waited for %d replies, want %d", step, got, wantReplies)
		}
		if st.DeltaSync != wantDelta {
			t.Errorf("%s: DeltaSync = %v, want %v", step, st.DeltaSync, wantDelta)
		}
		if got, _ := srv.FileContent("alice", name); !bytes.Equal(got, data) {
			t.Fatalf("%s: server content differs from what was uploaded", step)
		}
		return st
	}
	edit := func(data []byte, at int) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0xFF
		return out
	}

	small := content.Random(delta.DefaultBlockSize, 1).Bytes() // exactly one block
	upload("new small file", "small", small, 1, false)
	upload("modify of a known small file", "small", edit(small, 100), 1, false)
	st := upload("identical small file under another name", "small-copy", edit(small, 100), 1, false)
	if !st.DedupHit || st.PayloadBytes != len(small) {
		t.Errorf("inline dedup hit: %+v, want DedupHit with the %d payload bytes that rode along", st, len(small))
	}

	big := content.Random(1<<20, 2).Bytes()
	upload("new 1 MiB file", "big", big, 2, false)
	st = upload("identical large file under another name", "big-copy", big, 2, false)
	if !st.DedupHit || st.PayloadBytes != 0 {
		t.Errorf("probed dedup hit: %+v, want DedupHit and no payload", st)
	}

	big = edit(big, 300<<10)
	upload("first modify", "big", big, 1, true)
	for i := 0; i < 3; i++ {
		big = edit(big, (100+200*i)<<10)
		upload("repeat modify", "big", big, 1, true)
	}

	// A poll between two of A's own modifies lists big at the version A's
	// remembered signature describes: the signature survives the listing.
	conflicts := srv.Stats().CondDeltaConflicts
	if _, err := a.List(); err != nil {
		t.Fatalf("list between modifies: %v", err)
	}
	big = edit(big, 700<<10)
	upload("modify after a listing", "big", big, 1, true)
	if got := srv.Stats().CondDeltaConflicts; got != conflicts {
		t.Errorf("modify after a listing: %d conditional deltas refused, want none", got-conflicts)
	}

	// A replaces the file whole through a bundle: what it remembered
	// describes content that is gone, so the next modify asks for a
	// signature instead of guessing a version the server must refuse.
	big = content.Random(1<<20, 4).Bytes()
	if _, err := a.UploadBundle([]FileUpload{{Name: "big", Data: big}, {Name: "rider", Data: small}}); err != nil {
		t.Fatalf("bundle replacing a delta-synced file: %v", err)
	}
	big = edit(big, 400<<10)
	upload("modify after a bundle replaced the file", "big", big, 2, true)

	// Another device moves the file: A's remembered version is stale.
	if _, err := b.Download("big"); err != nil {
		t.Fatal(err)
	}
	theirs := edit(big, 900<<10)
	if st, err := b.Upload("big", theirs); err != nil || !st.DeltaSync {
		t.Fatalf("device B's modify: %+v, %v", st, err)
	}
	big = edit(big, 50<<10)
	st = upload("modify after another device's commit", "big", big, 3, true)
	if st.Version != 10 {
		t.Errorf("version after the fallback = %d, want 10", st.Version)
	}
	upload("repeat modify after the fallback", "big", edit(big, 60<<10), 1, true)

	ss := srv.Stats()
	if ss.InlineUploads != 3 || ss.DeltaSyncs-ss.SignaturesServed != 6 || ss.CondDeltaConflicts != 1 {
		t.Errorf("server counted %d inline uploads, %d deltas without a signature served, %d refused; want 3, 6, 1",
			ss.InlineUploads, ss.DeltaSyncs-ss.SignaturesServed, ss.CondDeltaConflicts)
	}

	a.Close()
	b.Close()
	srv.Close()
	in, out := a.WireTotals()
	for _, v := range invariant.CheckLedger(in+out, led.Snapshot()) {
		t.Errorf("client ledger: %v", v)
	}
	ss = srv.Stats()
	for _, v := range invariant.CheckLedger(ss.BytesReceived+ss.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
}

// replyTee records the bytes a connection reads: the server's replies
// as the client saw them.
type replyTee struct {
	net.Conn
	buf bytes.Buffer
}

func (c *replyTee) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.buf.Write(p[:n])
	return n, err
}

// TestConditionalDeltaOnTheWire looks at the frames themselves: the
// first modify after a full upload sends nothing but one DeltaMsg
// naming the version the upload's Ack reported, and is answered by one
// Ack with no signature before it; the repeat modify does the same on
// the version the previous Ack reported; and an exchange driven by
// hand — SigRequest, then a DeltaMsg on the served version — applies.
func TestConditionalDeltaOnTheWire(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	var tee *teeConn
	var replies *replyTee
	c, closeC := pipeClient(t, srv, "alice", "dev", func(nc net.Conn) net.Conn {
		replies = &replyTee{Conn: nc}
		tee = &teeConn{Conn: replies}
		return tee
	})
	v1 := content.Random(64<<10, 3).Bytes()
	full, err := c.Upload("f", v1)
	if err != nil {
		t.Fatal(err)
	}
	sent := func() [][]byte { // frames written since the last call
		t.Helper()
		frames := tee.frames(t)
		tee.mu.Lock()
		tee.buf.Reset()
		tee.mu.Unlock()
		return frames
	}
	oneDelta := func(step string, base uint64) {
		t.Helper()
		frames := sent()
		if len(frames) != 1 {
			t.Fatalf("%s sent %d frames, want one DeltaMsg", step, len(frames))
		}
		m, err := protocol.Decode(frames[0])
		if err != nil {
			t.Fatal(err)
		}
		if dm, ok := m.(*protocol.DeltaMsg); !ok || dm.BaseVersion != base {
			t.Fatalf("%s sent %#v, want a DeltaMsg on base version %d", step, m, base)
		}
	}
	sent()
	replies.buf.Reset()

	v2 := append([]byte(nil), v1...)
	v2[1000] ^= 1
	first, err := c.Upload("f", v2)
	if err != nil {
		t.Fatal(err)
	}
	oneDelta("first modify", full.Version)
	reply, err := protocol.ReadMessage(&replies.buf)
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := reply.(*protocol.Ack); !ok || ack.Version != full.Version+1 || replies.buf.Len() != 0 {
		t.Fatalf("first modify was answered %#v (%d bytes more), want only the ack of v%d", reply, replies.buf.Len(), full.Version+1)
	}

	v3 := append([]byte(nil), v2...)
	v3[40<<10] ^= 1
	if _, err := c.Upload("f", v3); err != nil {
		t.Fatal(err)
	}
	oneDelta("repeat modify", first.Version)
	closeC()

	raw := openRaw(t, srv, "alice")
	defer raw.close()
	served := raw.served("f", 0)
	if served.Version != 3 {
		t.Fatalf("signature served for v3 names version %d", served.Version)
	}
	basis, err := delta.DecodeSignature(served.Payload)
	if err != nil {
		t.Fatal(err)
	}
	v4 := append([]byte(nil), v3...)
	v4[7] ^= 1
	reply = raw.roundTrip(&protocol.DeltaMsg{Name: "f", Payload: delta.Compute(basis, v4).Encode(), BaseVersion: served.Version})
	if ack, ok := reply.(*protocol.Ack); !ok || ack.Version != 4 {
		t.Fatalf("hand-driven exchange: %#v, want ack of v4", reply)
	}
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v4) {
		t.Fatal("hand-driven exchange did not commit its target")
	}
}

// TestConditionalDeltaNeedsTheCurrentVersion drives the precondition by
// hand: a delta naming a superseded version, or one the file has not
// reached, is refused with ErrConflict and leaves the content alone;
// naming the current version applies without any signature having been
// served to the session.
func TestConditionalDeltaNeedsTheCurrentVersion(t *testing.T) {
	leakCheck(t)
	const bs = 512
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "dev", nil, WithBlockSize(bs))
	v1 := content.Random(16<<10, 1).Bytes()
	v2 := append([]byte(nil), v1...)
	v2[5000] ^= 1
	for _, v := range [][]byte{v1, v2} {
		if _, err := c.Upload("f", v); err != nil {
			t.Fatal(err)
		}
	}
	closeC()

	raw := openRaw(t, srv, "alice")
	defer raw.close()
	v3 := append([]byte(nil), v2...)
	v3[9000] ^= 1
	onV1 := delta.Compute(delta.Sign(v1, bs), v3).Encode()
	onV2 := delta.Compute(delta.Sign(v2, bs), v3).Encode()
	for _, stale := range []uint64{1, 3, 99} {
		reply := raw.roundTrip(&protocol.DeltaMsg{Name: "f", Payload: onV1, BaseVersion: stale})
		if e, ok := reply.(*protocol.Error); !ok || e.Code != protocol.ErrConflict {
			t.Fatalf("delta on version %d of a file at v2: %#v, want ErrConflict", stale, reply)
		}
		if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v2) {
			t.Fatalf("refused delta on version %d changed the content", stale)
		}
	}
	reply := raw.roundTrip(&protocol.DeltaMsg{Name: "f", Payload: onV2, BaseVersion: 2})
	if ack, ok := reply.(*protocol.Ack); !ok || ack.Version != 3 {
		t.Fatalf("delta on the current version: %#v, want ack of v3", reply)
	}
	if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, v3) {
		t.Fatal("accepted conditional delta did not produce its target")
	}
	// The client's modify to v2 cut its delta on the signature its full
	// upload left: no signature was served at all.
	if ss := srv.Stats(); ss.DeltaSyncs-ss.SignaturesServed != 2 || ss.CondDeltaConflicts != 3 {
		t.Fatalf("server counted %d deltas without a signature served, %d refused; want 2 and 3",
			ss.DeltaSyncs-ss.SignaturesServed, ss.CondDeltaConflicts)
	}
}

// beforeCommitConn runs hook once, just before the first Commit frame is
// written: after the server minted a fileID for the upload, before the
// content is stored under it.
type beforeCommitConn struct {
	net.Conn
	hook func()
}

func (c *beforeCommitConn) Write(p []byte) (int, error) {
	if c.hook != nil && len(p) > 0 && protocol.MsgType(p[0]) == protocol.TypeCommit {
		hook := c.hook
		c.hook = nil
		hook()
	}
	return c.Conn.Write(p)
}

// TestRacingCreatesAgreeOnFileID: two devices of one account create the
// same new name at once. Both are handed a freshly minted fileID, only
// one of them can become the file's — and both must end up knowing that
// one, or the loser's Delete names a file that does not exist.
func TestRacingCreatesAgreeOnFileID(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	b, closeB := pipeClient(t, srv, "alice", "dev-b", nil)
	var aConn *beforeCommitConn
	a, closeA := pipeClient(t, srv, "alice", "dev-a", func(c net.Conn) net.Conn {
		aConn = &beforeCommitConn{Conn: c}
		return aConn
	})

	// Index/commit path, interleaved by hand: A has its IndexReply when B
	// creates the name, then A commits.
	var hookErr error
	aConn.hook = func() { _, hookErr = b.Upload("doc", content.Random(20<<10, 2).Bytes()) }
	if _, err := a.Upload("doc", content.Random(20<<10, 1).Bytes()); err != nil || hookErr != nil {
		t.Fatalf("racing uploads: %v / %v", err, hookErr)
	}
	want := srv.Snapshot("alice")["doc"].ID
	idA := a.ids["doc"]
	idB := b.ids["doc"]
	if idA != want || idB != want {
		t.Fatalf("file is %d on the server; device A learned %d, device B %d", want, idA, idB)
	}
	if err := a.Delete("doc"); err != nil {
		t.Fatalf("the race's loser cannot delete the file: %v", err)
	}

	// Bundle path: the window is inside the server, so run the two
	// devices against each other over many names.
	names := make([]string, 300)
	for i := range names {
		names[i] = "n" + itoa(int64(i))
	}
	var wg sync.WaitGroup
	for dev, c := range []*Client{a, b} {
		wg.Add(1)
		go func(dev int, c *Client) {
			defer wg.Done()
			for i, name := range names {
				if _, err := c.Upload(name, content.Random(64, int64(2*i+dev)).Bytes()); err != nil {
					t.Errorf("device %d: %v", dev, err)
					return
				}
			}
		}(dev, c)
	}
	wg.Wait()
	snap := srv.Snapshot("alice")
	for _, name := range names {
		idA := a.ids[name]
		idB := b.ids[name]
		if want := snap[name].ID; idA != want || idB != want {
			t.Fatalf("%s is %d on the server; device A learned %d, device B %d", name, want, idA, idB)
		}
	}
	closeA()
	closeB()
}

// TestDedupHitSkipsRehash: content that comes out of the dedup store is
// not hashed again. The store is keyed by hash, so the only way to see
// the difference from outside is to plant content under a hash that is
// not its own: a probed hit and an inline hit must both commit it as
// found, where a re-hash would have rejected the upload.
func TestDedupHitSkipsRehash(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "dev", nil)
	defer closeC()
	for _, size := range []int{20 << 10, 100} { // probed, inline
		data := content.Random(int64(size), int64(size)).Bytes()
		if _, err := c.Upload("orig"+itoa(int64(size)), data); err != nil {
			t.Fatal(err)
		}
		planted := append([]byte(nil), data...)
		planted[0] ^= 0xFF
		srv.mu.Lock()
		for h, b := range srv.byHash {
			if bytes.Equal(b.bytes(), data) {
				srv.byHash[h] = newBlob(planted)
			}
		}
		srv.mu.Unlock()
		st, err := c.Upload("copy"+itoa(int64(size)), data)
		if err != nil || !st.DedupHit {
			t.Fatalf("%d-byte dedup hit: %+v, %v", size, st, err)
		}
		if got, _ := srv.FileContent("alice", "copy"+itoa(int64(size))); !bytes.Equal(got, planted) {
			t.Fatalf("%d-byte dedup hit did not commit the stored content as found", size)
		}
	}
}

// TestSigCacheIsBounded: the client's remembered signatures and the
// leaf tags beside them (16 B each) stay inside the byte budget,
// evicting least recently used first, and forgetting is complete.
func TestSigCacheIsBounded(t *testing.T) {
	var sc sigCache
	sigOf := func(blocks int) delta.Signature {
		return delta.Signature{BlockSize: 8, FileSize: int64(8 * blocks), Blocks: make([]delta.BlockSig, blocks)}
	}
	tagsOf := func(n int) []leafTag { return make([]leafTag, n) }
	// A third of the budget: a signature of a sixth and leaf tags of
	// about a sixth.
	third := sigOf((sigCacheBudget/6 - 12) / 20)
	thirdTags := tagsOf((sigCacheBudget/3 - third.WireSize()) / 16)
	for _, name := range []string{"a", "b", "c"} {
		sc.put(name, 1, third, thirdTags)
	}
	if sc.get("a") == nil || sc.bytes > sigCacheBudget {
		t.Fatalf("three thirds do not fit: %d bytes held", sc.bytes)
	}
	// The signatures alone take half the budget, so only the leaf tags
	// make room short: d evicts b, a having just been used.
	sc.put("d", 1, third, nil)
	if sc.get("b") != nil || sc.get("a") == nil || sc.get("c") == nil || sc.get("d") == nil {
		t.Fatal("eviction did not count the leaf tags or take the least recently used entry")
	}
	sc.put("a", 2, sigOf(1), tagsOf(2)) // replacing shrinks the account
	if got := sc.get("a"); got == nil || got.version != 2 || len(got.tags) != 2 {
		t.Fatalf("replaced entry: %+v", got)
	}
	sc.put("huge", 1, sigOf(sigCacheBudget/20+1), nil)
	sc.put("huge tags", 1, sigOf(1), tagsOf(sigCacheBudget/16+1))
	if sc.get("huge") != nil || sc.get("huge tags") != nil {
		t.Fatal("an entry larger than the budget was kept")
	}
	sc.drop("c")
	sc.drop("never-there")
	if want := third.WireSize() + sigOf(1).WireSize() + 2*16; sc.bytes != want || sc.ll.Len() != 2 {
		t.Fatalf("after drops: %d bytes in %d entries, want %d in 2", sc.bytes, sc.ll.Len(), want)
	}
	sc.clear()
	if sc.bytes != 0 || sc.ll.Len() != 0 || len(sc.entries) != 0 || sc.get("a") != nil {
		t.Fatal("clear left something behind")
	}
}
