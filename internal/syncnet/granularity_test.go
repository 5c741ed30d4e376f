package syncnet

import (
	"fmt"
	"math/rand/v2"
	"net"
	"testing"

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
// size, a file is signed at delta.BlockSizeFor(its size), so a delta
// costs about one such block per edit — not one 8 KiB block — whether
// the signature was served or remembered by the client. An explicit
// size, the server's or the client's, still wins.
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
		{"large.bin", 4 << 20, 8, 2048, 8*2048 + 256},
	}
	for i, cs := range cases {
		v := content.Random(int64(cs.size), int64(i+1)).Bytes()
		if _, err := c.Upload(cs.name, v); err != nil {
			t.Fatalf("%s: first upload: %v", cs.name, err)
		}
		// Round 1 asks for the signature; round 2 cuts its delta against
		// the one the client carried forward.
		for round := 1; round <= 2; round++ {
			v = editRegions(v, cs.edits, round)
			st, err := c.Upload(cs.name, v)
			if err != nil {
				t.Fatalf("%s round %d: %v", cs.name, round, err)
			}
			if !st.DeltaSync || st.PayloadBytes > cs.maxDeltaSize {
				t.Errorf("%s round %d: delta sync %v, %d-byte DeltaMsg payload; want a delta of ≤ %d bytes",
					cs.name, round, st.DeltaSync, st.PayloadBytes, cs.maxDeltaSize)
			}
			if got, _ := srv.FileContent("alice", cs.name); string(got) != string(v) {
				t.Fatalf("%s round %d: server content differs from the upload", cs.name, round)
			}
		}
	}
	closeC()

	var sizes []string
	for _, s := range tr.Spans() {
		if s.Name == "client.delta_sync" {
			sizes = append(sizes, s.Attr("block_size"))
		}
	}
	if fmt.Sprint(sizes) != "[512 512 2048 2048]" {
		t.Errorf("client.delta_sync block_size attributes %v, want [512 512 2048 2048]", sizes)
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

	fixed := NewServer(ServerConfig{BlockSize: 4096})
	t.Cleanup(func() { fixed.Close() })
	c, closeC = pipeClient(t, fixed, "alice", "dev", nil)
	if _, err := c.Upload("large.bin", content.Random(4<<20, 9).Bytes()); err != nil {
		t.Fatal(err)
	}
	closeC()
	raw = openRaw(t, fixed, "alice")
	if sig, _ := delta.DecodeSignature(raw.signature("large.bin", 0)); sig.BlockSize != 4096 {
		t.Errorf("ServerConfig.BlockSize 4096: served %d B", sig.BlockSize)
	}
	raw.close()
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
