package syncnet

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/delta"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
)

const leaf = protocol.LeafSize

// leavesOf returns data's leaf sums, every one hashed.
func leavesOf(data []byte) []protocol.LeafSum {
	leaves := newLeaves(len(data))
	protocol.SumLeaves(data, leaves)
	return leaves
}

// checkCarry applies d to basis and requires the incremental identity —
// basis's leaf sums carried through d, the rest hashed — to equal
// protocol.Sum of the result, leaf for leaf. It returns how many leaves
// were carried and how many bytes were hashed.
func checkCarry(t *testing.T, label string, basis []byte, d delta.Delta) (carried, hashed int) {
	t.Helper()
	raw, err := delta.Apply(basis, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	leaves := carryLeaves(leavesOf(basis), len(basis), d, len(raw))
	for _, l := range leaves {
		if l != (protocol.LeafSum{}) {
			carried++
		}
	}
	fp, hashed := protocol.SumLeaves(raw, leaves)
	if want := protocol.Sum(raw); fp != want {
		t.Fatalf("%s: incremental identity %x, want %x", label, fp, want)
	}
	if want := leavesOf(raw); !slices.Equal(leaves, want) {
		t.Fatalf("%s: leaf sums differ from the result's", label)
	}
	return carried, hashed
}

// TestCarryLeavesMatchesSum: over seeded edit scripts — in-place
// edits, moved and repeated blocks, truncation and growth, a partial
// last leaf, empty and single-leaf files — at block sizes below, at,
// above and across the leaf grid, the leaf sums a delta carries from
// its basis and the ones hashed afresh give exactly protocol.Sum of the
// result. Only the leaves carried are skipped, and some always are.
func TestCarryLeavesMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	random := func(n int) []byte { return content.Random(int64(n), rng.Int64()).Bytes() }
	scripts := []struct {
		name string
		edit func(basis []byte, bs int) []byte
	}{
		{"in-place edits", func(b []byte, _ int) []byte {
			b = bytes.Clone(b)
			for range 1 + rng.IntN(4) {
				if len(b) > 0 {
					b[rng.IntN(len(b))] ^= 0x5a
				}
			}
			return b
		}},
		{"moved blocks", func(b []byte, bs int) []byte {
			b = bytes.Clone(b)
			if n := len(b) / bs; n >= 2 {
				i, j := rng.IntN(n), rng.IntN(n)
				x, y := bytes.Clone(b[i*bs:(i+1)*bs]), bytes.Clone(b[j*bs:(j+1)*bs])
				copy(b[i*bs:], y)
				copy(b[j*bs:], x)
			}
			return b
		}},
		{"shifted", func(b []byte, _ int) []byte { return append(random(1+rng.IntN(100)), b...) }},
		{"repeated blocks", func(b []byte, bs int) []byte {
			var out []byte
			for range 1 + rng.IntN(6) {
				out = append(out, b[:min(bs, len(b))]...)
			}
			return append(out, b...)
		}},
		{"truncated on a block", func(b []byte, bs int) []byte { return b[:len(b)/bs/2*bs] }},
		{"truncated mid-block", func(b []byte, _ int) []byte { return b[:rng.IntN(len(b)+1)] }},
		{"grown", func(b []byte, _ int) []byte { return append(bytes.Clone(b), random(1+rng.IntN(2*leaf))...) }},
		{"emptied", func([]byte, int) []byte { return nil }},
		{"rewritten", func(b []byte, _ int) []byte { return random(len(b)) }},
	}
	sizes := []int{0, 1, leaf - 1, leaf, leaf + 1, 3*leaf + 512, 4 * leaf, 6*leaf + 7}
	var carried, cases int
	for _, script := range scripts {
		for _, size := range sizes {
			for _, bs := range []int{512, 1000, leaf, 4 * leaf} {
				basis := random(size)
				target := script.edit(basis, bs)
				d := delta.Compute(delta.Sign(basis, bs), target)
				c, _ := checkCarry(t, fmt.Sprintf("%s, %d B basis, %d B blocks", script.name, size, bs), basis, d)
				carried += c
				cases++
			}
		}
	}
	if carried == 0 {
		t.Fatalf("no leaf carried over %d cases", cases)
	}
	t.Logf("%d cases, %d leaves carried", cases, carried)
}

// TestCarryLeavesRefusesMovedLeaves pins the two conditions of carrying
// a leaf. A whole leaf copied to another leaf's place — the same bytes,
// at another offset — is hashed, and so is the last leaf of a basis cut
// short inside it, whose bytes are all in place but fewer.
func TestCarryLeavesRefusesMovedLeaves(t *testing.T) {
	basis := content.Random(4*leaf, 3).Bytes()
	swap := delta.Delta{BlockSize: leaf, TargetSize: 4 * leaf, Ops: []delta.Op{
		{Kind: delta.OpCopy, Index: 1, Count: 1},
		{Kind: delta.OpCopy, Index: 0, Count: 1},
		{Kind: delta.OpCopy, Index: 2, Count: 2},
	}}
	if carried, hashed := checkCarry(t, "two leaves swapped", basis, swap); carried != 2 || hashed != 2*leaf {
		t.Errorf("two leaves swapped: %d carried, %d B hashed; want 2 and %d", carried, hashed, 2*leaf)
	}
	cut := delta.Delta{BlockSize: 512, TargetSize: 3*leaf + 1024, Ops: []delta.Op{
		{Kind: delta.OpCopy, Index: 0, Count: (3*leaf + 1024) / 512},
	}}
	if carried, hashed := checkCarry(t, "cut inside the last leaf", basis, cut); carried != 3 || hashed != 1024 {
		t.Errorf("cut inside the last leaf: %d carried, %d B hashed; want 3 and 1024", carried, hashed)
	}
}

// FuzzLeafSum builds a delta from the fuzzer's script — runs of basis
// blocks copied from anywhere, runs copied in place, literals — over a
// basis of up to six leaves, and checks the carried identity against
// protocol.Sum of the result.
func FuzzLeafSum(f *testing.F) {
	f.Add(uint32(3*leaf+100), uint32(512), []byte{2, 0, 40, 1, 1, 7, 0, 3, 2, 2, 0, 200})
	f.Add(uint32(4*leaf), uint32(leaf), []byte{0, 1, 1, 0, 0, 1, 2, 0, 2})
	f.Add(uint32(leaf+1), uint32(4096), []byte{1, 255, 255, 2, 0, 9})
	f.Fuzz(func(t *testing.T, basisLen, bs uint32, script []byte) {
		basisLen %= 6*leaf + 1
		bs = 1 + bs%(2*leaf)
		basis := content.Random(int64(basisLen), int64(basisLen)).Bytes()
		d := delta.Delta{BlockSize: int(bs)}
		nBlocks := (len(basis) + d.BlockSize - 1) / d.BlockSize
		blockLen := func(idx, count int) int {
			off := idx * d.BlockSize
			return min(off+count*d.BlockSize, len(basis)) - off
		}
		for ; len(script) >= 3 && d.TargetSize < 8*leaf; script = script[3:] {
			a, b := int(script[1]), int(script[2])
			switch script[0] % 3 {
			case 0: // a run from anywhere in the basis
				if nBlocks > 0 {
					idx := a % nBlocks
					count := 1 + b%(nBlocks-idx)
					d.Ops = append(d.Ops, delta.Op{Kind: delta.OpCopy, Index: idx, Count: count})
					d.TargetSize += int64(blockLen(idx, count))
				}
			case 1: // a literal
				lit := content.Random(int64((a<<8|b)%(leaf+1)), int64(a)).Bytes()
				d.Ops = append(d.Ops, delta.Op{Kind: delta.OpLiteral, Data: lit})
				d.TargetSize += int64(len(lit))
			case 2: // a run in place, when the output is on a block boundary
				if pos := int(d.TargetSize); pos%d.BlockSize == 0 && pos/d.BlockSize < nBlocks {
					idx := pos / d.BlockSize
					count := 1 + a%(nBlocks-idx)
					d.Ops = append(d.Ops, delta.Op{Kind: delta.OpCopy, Index: idx, Count: count})
					d.TargetSize += int64(blockLen(idx, count))
				}
			}
		}
		checkCarry(t, "fuzzed delta", basis, d)
	})
}

// TestDeltaHashesOnlyTouchedLeaves is the witness of the leaf-hashed
// identity, read from syncd_content_hash_bytes_total: a full upload of
// a 4 MiB file hashes exactly its size, and a delta of eight 256 B
// edits to it (the large-modify workload's) at most its eight leaves
// and 8 KiB of slack, not the file. After a reopen the basis's leaf
// sums are gone, so the first delta hashes its whole result; the next
// one is back to the touched leaves.
func TestDeltaHashesOnlyTouchedLeaves(t *testing.T) {
	const size = 4 << 20
	const bound = 8*leaf + 8<<10
	dir := t.TempDir()
	data := content.Random(size, 1).Bytes()
	open := func() (srv *Server, hashed func() int64) {
		reg := obs.NewRegistry()
		srv, err := OpenServer(ServerConfig{StateDir: dir, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return srv, reg.Counter("syncd_content_hash_bytes_total", "").Value
	}
	upload := func(srv *Server, c *Client, hashed func() int64, what string, wantDelta bool) int64 {
		t.Helper()
		before := hashed()
		st, err := c.Upload("big", data)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if st.DeltaSync != wantDelta {
			t.Fatalf("%s: delta sync %v, want %v", what, st.DeltaSync, wantDelta)
		}
		if got, _ := srv.FileContent("alice", "big"); !bytes.Equal(got, data) {
			t.Fatalf("%s: server holds other bytes", what)
		}
		n := hashed() - before
		t.Logf("%s: %d B hashed", what, n)
		return n
	}

	srv, hashed := open()
	c, closeC := pipeClient(t, srv, "alice", "a", nil)
	if n := upload(srv, c, hashed, "full upload", false); n != size {
		t.Errorf("full upload hashed %d B, want exactly its %d", n, size)
	}
	data = editRegions(data, 8, 16) // 256 B at 4 KiB into each eighth, as large-modify edits
	if n := upload(srv, c, hashed, "delta", true); n > bound {
		t.Errorf("delta of 8 x 256 B hashed %d B, want at most %d", n, bound)
	}
	closeC()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, hashed = open()
	defer srv.Close()
	c, closeC = pipeClient(t, srv, "alice", "a", nil)
	defer closeC()
	if _, err := c.List(); err != nil { // a fresh client learns the file from a listing
		t.Fatal(err)
	}
	data = editRegions(data, 8, 17)
	if n := upload(srv, c, hashed, "first delta after reopen", true); n != size {
		t.Errorf("first delta after reopen hashed %d B, want the whole result's %d", n, size)
	}
	data = editRegions(data, 8, 18)
	if n := upload(srv, c, hashed, "second delta after reopen", true); n > bound {
		t.Errorf("second delta after reopen hashed %d B, want at most %d", n, bound)
	}
}

// TestServerRefusesOversizedFiles: a size past maxFileSize is refused,
// softly, before anything is allocated for it — a lone upload's, a
// bundle entry's, and a delta's target. The delta is a few KiB of ops
// copying a 4 MiB basis 513 times: 2 GiB and 4 MiB, all of which Apply
// would otherwise allocate and the server hash.
func TestServerRefusesOversizedFiles(t *testing.T) {
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	c, closeC := pipeClient(t, srv, "alice", "dev", nil)
	if _, err := c.Upload("f", content.Random(4<<20, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	closeC()
	raw := openRaw(t, srv, "alice")
	refused := func(what string, reply protocol.Message) {
		t.Helper()
		if e, ok := reply.(*protocol.Error); !ok || e.Code != protocol.ErrBadRequest {
			t.Errorf("%s: got %v, want ErrBadRequest", what, reply.Type())
		}
	}

	d := delta.Delta{BlockSize: 4 << 20, TargetSize: 513 * 4 << 20}
	for range 513 {
		d.Ops = append(d.Ops, delta.Op{Kind: delta.OpCopy, Index: 0, Count: 1})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refused("delta to 2 GiB + 4 MiB", raw.roundTrip(&protocol.DeltaMsg{Name: "f", BaseVersion: 1, Payload: d.Encode()}))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("refusing the delta allocated %d B", grew)
	}

	refused("upload of 2 GiB + 1", raw.roundTrip(&protocol.IndexUpdate{Name: "g", Size: maxFileSize + 1}))
	reply := raw.roundTrip(&protocol.Bundle{Entries: []protocol.BundleEntry{
		{Name: "h", Size: maxFileSize + 1},
		{Name: "i", Size: 1, FileHash: protocol.Sum([]byte("i")), Payload: []byte("i")},
	}})
	if br, ok := reply.(*protocol.BundleReply); !ok || br.Results[0].OK || !br.Results[1].OK {
		t.Errorf("bundle with a 2 GiB + 1 entry: got %#v, want the entry refused and the next committed", reply)
	}
	// Every refusal was soft: the session goes on.
	raw.signature("f", 0)
	raw.close()
	if got, _ := srv.FileContent("alice", "f"); len(got) != 4<<20 {
		t.Errorf("f holds %d B after the refused delta, want its 4 MiB", len(got))
	}
}
