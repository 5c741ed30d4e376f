package syncnet

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"testing"
	"unicode"

	"cloudsync/internal/content"
	"cloudsync/internal/delta"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// editRegions XORs n 256-byte regions spread evenly over a copy of data.
// Each region starts round·256 bytes into its stretch, so it lies inside
// one block of any power-of-two size ≥ 256, and successive rounds touch
// different bytes.
func editRegions(data []byte, n, round int) []byte {
	out := append([]byte(nil), data...)
	for k := 0; k < n; k++ {
		off := k*(len(out)/n) + round*256
		for i := off; i < off+256; i++ {
			out[i] ^= 0x5A
		}
	}
	return out
}

// TestDeltaGranularityFollowsFileSize: on a server that names no block
// size, who pays for a signature sets its granularity. One the client
// signs from its own bytes at a full upload and holds is cut at
// heldBlockSize — 512 B for both files here — so a delta costs about
// one 512 B block per edit; one that crosses the wire is signed at
// delta.BlockSizeFor(size), 2 KiB for 4 MiB. A delta chain keeps the
// size of the signature it began from: after another device's commit
// refuses the held signature, the served one's 2 KiB stays until the
// next full upload. An explicit size, the server's or the client's,
// still wins.
func TestDeltaGranularityFollowsFileSize(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	tr := obs.NewTracer()
	c, closeC := pipeClient(t, srv, "alice", "dev", nil, WithTracer(tr))

	cases := []struct {
		name         string
		size, edits  int
		wantBS       int
		maxDeltaSize int
	}{
		{"small.bin", 64 << 10, 2, 512, 2*512 + 128},
		{"large.bin", 4 << 20, 8, 2048, 8*512 + 256},
	}
	upload := func(label, name string, v []byte, maxDelta int) {
		t.Helper()
		st, err := c.Upload(name, v)
		if err != nil {
			t.Fatalf("%s %s: %v", name, label, err)
		}
		if !st.DeltaSync || st.PayloadBytes > maxDelta {
			t.Errorf("%s %s: delta sync %v, %d-byte DeltaMsg payload; want a delta of ≤ %d bytes",
				name, label, st.DeltaSync, st.PayloadBytes, maxDelta)
		}
		if got, _ := srv.FileContent("alice", name); string(got) != string(v) {
			t.Fatalf("%s %s: server content differs from the upload", name, label)
		}
	}
	var large []byte
	for i, cs := range cases {
		v := content.Random(int64(cs.size), int64(i+1)).Bytes()
		if _, err := c.Upload(cs.name, v); err != nil {
			t.Fatalf("%s: first upload: %v", cs.name, err)
		}
		// Both rounds cut their delta against the signature the client
		// holds: its full upload's, then the one carried forward.
		for round := 1; round <= 2; round++ {
			v = editRegions(v, cs.edits, round)
			upload(fmt.Sprintf("round %d", round), cs.name, v, cs.maxDeltaSize)
		}
		large = v
	}
	if n := srv.Stats().SignaturesServed; n != 0 {
		t.Fatalf("%d signatures served to a client holding its own", n)
	}

	// Another device commits large.bin, so the held signature's version
	// is refused and the client falls back to a served one.
	other, closeOther := pipeClient(t, srv, "alice", "other", nil)
	if st, err := other.Upload("large.bin", editRegions(large, 8, 3)); err != nil || st.DeltaSync {
		t.Fatalf("other device's full upload: %+v, %v", st, err)
	}
	closeOther()
	const servedDelta = 8*2048 + 256
	large = editRegions(large, 8, 4) // same 2 KiB blocks as round 3's edits
	upload("served round", "large.bin", large, servedDelta)
	if ss := srv.Stats(); ss.SignaturesServed != 1 || ss.CondDeltaConflicts != 1 {
		t.Fatalf("served round: %d signatures served, %d deltas refused; want 1 and 1", ss.SignaturesServed, ss.CondDeltaConflicts)
	}
	large = editRegions(large, 8, 5)
	upload("resigned round", "large.bin", large, servedDelta)
	// A full upload starts a held chain again.
	id, _ := c.FileID("large.bin")
	c.Prime("large.bin", id, false)
	if st, err := c.Upload("large.bin", large); err != nil || st.DeltaSync {
		t.Fatalf("forced full upload: %+v, %v", st, err)
	}
	large = editRegions(large, 8, 6)
	upload("round after the full upload", "large.bin", large, cases[1].maxDeltaSize)
	if n := srv.Stats().SignaturesServed; n != 1 {
		t.Errorf("%d signatures served, want only the conflict's 1", n)
	}
	closeC()

	var sizes []string
	for _, s := range tr.Spans() {
		if s.Name == "client.delta_sync" {
			sizes = append(sizes, s.Attr("block_size"))
		}
	}
	// The refused try carries the held 512 B; its fallback the served 2 KiB.
	if want := "[512 512 512 512 512 2048 2048 512]"; fmt.Sprint(sizes) != want {
		t.Errorf("client.delta_sync block_size attributes %v, want %s", sizes, want)
	}

	raw := openRaw(t, srv, "alice")
	for _, cs := range cases {
		sig, err := delta.DecodeSignature(raw.signature(cs.name, 0))
		if err != nil || sig.BlockSize != cs.wantBS {
			t.Errorf("%s: served signature at %d B (%v), want %d B", cs.name, sig.BlockSize, err, cs.wantBS)
		}
	}
	if sig, _ := delta.DecodeSignature(raw.signature("large.bin", 4096)); sig.BlockSize != 4096 {
		t.Errorf("a request naming 4096 B was served %d B", sig.BlockSize)
	}
	raw.close()
}

// TestHeldBlockSize pins the block a client signs its own bytes at:
// the table's rows, then the properties over sizes up to 2⁴² (in int64,
// so it also runs on a 32-bit build) — a power of two inside
// [delta.MinBlockSize, delta.BlockSizeFor(n)], monotone in n, and the
// finest such block whose signature fits heldSigShare unless the
// served block is reached first.
func TestHeldBlockSize(t *testing.T) {
	for _, row := range []struct {
		size int64
		want int
	}{
		{0, 512}, {64 << 10, 512}, {1 << 20, 512}, {4 << 20, 512}, {16 << 20, 2048},
		{64 << 20, 8192}, {1 << 30, 32 << 10}, {2 << 30, 32 << 10}, // 2 GiB: the paper's largest file
	} {
		if got := heldBlockSize(row.size); got != row.want {
			t.Errorf("heldBlockSize(%d) = %d, want %d", row.size, got, row.want)
		}
	}
	var sizes []int64
	for k := 0; k <= 42; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1, 3<<k>>1)
	}
	slices.Sort(sizes)
	prev := 0
	for _, n := range sizes {
		bs, served := heldBlockSize(n), delta.BlockSizeFor(n)
		if bs&(bs-1) != 0 || bs < delta.MinBlockSize || bs > served {
			t.Fatalf("heldBlockSize(%d) = %d: not a power of two in [%d, %d]", n, bs, delta.MinBlockSize, served)
		}
		if delta.SignatureWireSize(n, bs) > heldSigShare && bs != served {
			t.Fatalf("heldBlockSize(%d) = %d: a %d-byte signature, over the %d-byte share", n, bs, delta.SignatureWireSize(n, bs), heldSigShare)
		}
		if bs > delta.MinBlockSize && delta.SignatureWireSize(n, bs/2) <= heldSigShare {
			t.Fatalf("heldBlockSize(%d) = %d, but %d B blocks fit the share", n, bs, bs/2)
		}
		if bs < prev {
			t.Fatalf("heldBlockSize(%d) = %d, below a smaller file's %d", n, bs, prev)
		}
		prev = bs
	}
}

// TestHeldAndServedChainsMeet: two devices edit one 4 MiB file at the
// default sizes, so a chain begun by a device's own full upload (held,
// 512 B blocks) meets one begun from a served signature (2 KiB) under
// conflicts. The script's letters: a/b, device A/B edits eight 256 B
// regions of the current content; A/B, that device re-uploads it whole.
// After every Ack the server holds the uploaded bytes; each conflict
// forces exactly one signature fetch and nothing else does; every delta
// ships eight blocks of its chain's size as literals; all three ledgers
// balance.
func TestHeldAndServedChainsMeet(t *testing.T) {
	leakCheck(t)
	srvLed, reg := &ledger.Ledger{}, obs.NewRegistry()
	srv := NewServer(ServerConfig{Ledger: srvLed, Metrics: reg})
	t.Cleanup(func() { srv.Close() })
	served := reg.Counter("syncd_signatures_served_total", "")
	literal := reg.Counter("syncd_delta_literal_bytes_total", "")

	// Each device starts a held chain with a full upload of its own.
	devs := [2]*device{newDevice(t, srv, "A", FaultPlan{}), newDevice(t, srv, "B", FaultPlan{})}
	type chain struct {
		version uint64
		bs      int
	}
	var chains [2]chain
	cur := content.Random(4<<20, 38).Bytes()
	var version uint64
	full := func(k int) {
		t.Helper()
		cur = editRegions(cur, 8, 0)
		st, err := devs[k].c.Upload("f", cur)
		if err != nil || st.DeltaSync {
			t.Fatalf("device %d full upload: %+v, %v", k, st, err)
		}
		version, chains[k] = st.Version, chain{st.Version, 512}
	}
	full(0)
	full(1)

	conflicts := 0
	for step, op := range "aabbabAaaBbab" {
		k := int(unicode.ToLower(op) - 'a')
		if unicode.IsUpper(op) {
			id, _ := devs[k].c.FileID("f")
			devs[k].c.Prime("f", id, false)
			full(k)
			continue
		}
		if chains[k].version != version { // another device moved the file
			conflicts++
			chains[k].bs = 2048
		}
		cur = editRegions(cur, 8, step+1)
		lit0 := literal.Value()
		st, err := devs[k].c.Upload("f", cur)
		if err != nil || !st.DeltaSync {
			t.Fatalf("step %d (%c): %+v, %v", step, op, st, err)
		}
		if got, _ := srv.FileContent("alice", "f"); !bytes.Equal(got, cur) {
			t.Fatalf("step %d (%c): the server holds other bytes than the upload", step, op)
		}
		if got, want := literal.Value()-lit0, int64(8*chains[k].bs); got != want {
			t.Errorf("step %d (%c): %d literal bytes, want 8 blocks of %d B", step, op, got, chains[k].bs)
		}
		if n := served.Value(); n != int64(conflicts) {
			t.Errorf("step %d (%c): %d signatures served after %d conflicts", step, op, n, conflicts)
		}
		version, chains[k].version = st.Version, st.Version
	}
	if ss := srv.Stats(); ss.CondDeltaConflicts != int64(conflicts) || conflicts == 0 {
		t.Errorf("%d deltas refused, the script forced %d", ss.CondDeltaConflicts, conflicts)
	}
	for k, d := range devs {
		d.close(t, fmt.Sprintf("device %c", 'A'+k))
	}
	ss := srv.Stats()
	for _, v := range invariant.CheckLedger(ss.BytesReceived+ss.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
}

// TestSigRequestBlockSizeBounded: a peer may name the granularity it is
// signed at only within the bounds delta.BlockSizeFor keeps to. Below
// them a 64 KiB file's signature would balloon (1 B blocks: ~500× the
// 512 B one); above 2³¹ the size turns negative as a 32-bit int. Each
// out-of-range request is refused with ErrBadRequest and the session
// goes on to serve the in-range ones.
func TestSigRequestBlockSizeBounded(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "dev", nil)
	if _, err := c.Upload("f", content.Random(64<<10, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	closeC()
	raw := openRaw(t, srv, "alice")
	for _, bs := range []uint32{1, delta.MinBlockSize - 1, delta.MaxBlockSize + 1, 1 << 31} {
		reply := raw.roundTrip(&protocol.SigRequest{Name: "f", BlockSize: bs})
		if e, ok := reply.(*protocol.Error); !ok || e.Code != protocol.ErrBadRequest {
			t.Errorf("SigRequest at %d B: got %v, want ErrBadRequest", bs, reply.Type())
		}
	}
	for _, cs := range []struct{ req, want int }{{0, 512}, {1024, 1024}} {
		sig, err := delta.DecodeSignature(raw.signature("f", cs.req))
		if err != nil || sig.BlockSize != cs.want {
			t.Errorf("SigRequest at %d B: served %d B (%v), want %d B", cs.req, sig.BlockSize, err, cs.want)
		}
	}
	raw.close()
	if n := srv.Stats().SignaturesServed; n != 2 {
		t.Errorf("%d signatures served, want 2", n)
	}
}

// deltaCapture records the DeltaMsg frames a client writes: the deltas,
// and the bytes of each frame body that are not the delta's literals or
// its BaseVersion — what the ledger charges to delta_copyref.
type deltaCapture struct {
	net.Conn
	deltas  []delta.Delta
	copyref int64
	err     error
}

func (c *deltaCapture) Write(p []byte) (int, error) {
	if len(p) > 0 && protocol.MsgType(p[0]) == protocol.TypeDelta {
		if m, err := protocol.Decode(p); err == nil {
			msg := m.(*protocol.DeltaMsg)
			d, err := delta.DecodeDelta(msg.Payload)
			if err != nil && c.err == nil {
				c.err = err
			}
			c.deltas = append(c.deltas, d)
			c.copyref += int64(len(p) - frameHeaderSize - d.LiteralBytes())
			if msg.BaseVersion != 0 {
				c.copyref -= 8
			}
		}
	}
	return c.Conn.Write(p)
}

// TestLedgerChargesDeltaLiteralsExactly: over a seeded script of delta
// syncs — in-place edits, shifting inserts, appends, truncations, so
// deltas carry single copies, multi-block runs and literals — the
// client's and the server's delta_literal causes each equal the literal
// bytes of the deltas sent, and delta_copyref the rest of those
// payloads; syncd_delta_literal_bytes_total agrees; ledger equals wire
// on both sides.
func TestLedgerChargesDeltaLiteralsExactly(t *testing.T) {
	leakCheck(t)
	srvLed, cliLed := &ledger.Ledger{}, &ledger.Ledger{}
	reg := obs.NewRegistry()
	srv := NewServer(ServerConfig{Ledger: srvLed, Metrics: reg})
	t.Cleanup(func() { srv.Close() })
	var capture *deltaCapture
	c, closeC := pipeClient(t, srv, "alice", "dev", func(conn net.Conn) net.Conn {
		capture = &deltaCapture{Conn: conn}
		return capture
	}, WithLedger(cliLed))

	r := rand.New(rand.NewPCG(24, 1))
	files := map[string][]byte{}
	for i, size := range []int{20 << 10, 64 << 10, 300 << 10, 1 << 20} {
		name := fmt.Sprintf("f%d", i)
		files[name] = content.Random(int64(size), int64(100+i)).Bytes()
		if _, err := c.Upload(name, files[name]); err != nil {
			t.Fatal(err)
		}
	}
	syncs := 0
	for step := 0; step < 40; step++ {
		name := fmt.Sprintf("f%d", r.IntN(len(files)))
		v := append([]byte(nil), files[name]...)
		switch pos := r.IntN(len(v)); r.IntN(4) {
		case 0: // in-place edits
			for k := 0; k < 1+r.IntN(6); k++ {
				v[r.IntN(len(v))] ^= 0xFF
			}
		case 1: // insert: misaligns what follows until the scan resyncs
			v = append(v[:pos:pos], append(content.Random(int64(1+r.IntN(3000)), int64(step)).Bytes(), v[pos:]...)...)
		case 2: // append
			v = append(v, content.Random(int64(1+r.IntN(5000)), int64(1000+step)).Bytes()...)
		default: // truncate
			v = v[:len(v)-r.IntN(len(v)/8+1)]
		}
		st, err := c.Upload(name, v)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if st.DeltaSync {
			syncs++
		}
		files[name] = v
	}
	closeC()
	if capture.err != nil {
		t.Fatalf("client sent an undecodable delta: %v", capture.err)
	}
	if syncs < 30 || len(capture.deltas) != syncs {
		t.Fatalf("%d delta syncs, %d DeltaMsg frames captured", syncs, len(capture.deltas))
	}

	var lit int64
	runs := 0
	for _, d := range capture.deltas {
		lit += int64(d.LiteralBytes())
		for _, op := range d.Ops {
			if op.Kind == delta.OpCopy && op.Count > 1 {
				runs++
			}
		}
	}
	if runs == 0 {
		t.Fatal("no delta in the script carried a multi-block run")
	}
	for _, side := range []struct {
		name string
		led  *ledger.Ledger
	}{{"client", cliLed}, {"server", srvLed}} {
		if got := side.led.Get(ledger.DeltaLiteral); got != lit {
			t.Errorf("%s delta_literal = %d, the deltas carried %d literal bytes", side.name, got, lit)
		}
		if got := side.led.Get(ledger.DeltaCopyRef); got != capture.copyref {
			t.Errorf("%s delta_copyref = %d, the frames' other delta bytes are %d", side.name, got, capture.copyref)
		}
	}
	if got := reg.Counter("syncd_delta_literal_bytes_total", "").Value(); got != lit {
		t.Errorf("syncd_delta_literal_bytes_total = %d, want %d", got, lit)
	}
	in, out := c.WireTotals()
	for _, v := range invariant.CheckLedger(in+out, cliLed.Snapshot()) {
		t.Errorf("client ledger: %v", v)
	}
	ss := srv.Stats()
	for _, v := range invariant.CheckLedger(ss.BytesReceived+ss.BytesSent, srvLed.Snapshot()) {
		t.Errorf("server ledger: %v", v)
	}
}
