package syncnet

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"cloudsync/internal/content"
	"cloudsync/internal/delta"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
	"cloudsync/internal/wire"
)

const leaf = protocol.LeafSize

// sumsOf returns data's leaf sums, every one hashed: nil for one leaf.
func sumsOf(data []byte) []protocol.LeafSum {
	n := protocol.NumLeaves(len(data))
	if n == 0 {
		return nil
	}
	sums := make([]protocol.LeafSum, n)
	protocol.SumLeaves(protocol.Leaves(data), sums)
	return sums
}

// overlaps reports whether a and b share any byte of memory.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// checkCarry is the differential check of applyDelta against
// delta.Apply. It decodes d out of a pooled frame buffer, as a session
// reads it, and applies it to basis held as a stored blob with its leaf
// sums. The result must hold Apply's bytes, on the leaf grid; every leaf
// it shares must be basis's own leaf at the same index, with its sum;
// every leaf it built must alias neither basis, nor the frame, nor a
// literal, and count into built. Hashing the result's zero sums must
// give protocol.Sum of Apply's result, leaf for leaf. It returns how
// many leaves were carried and how many bytes were hashed.
func checkCarry(t *testing.T, label string, basis []byte, d delta.Delta) (carried, hashed int) {
	t.Helper()
	want, err := delta.Apply(basis, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	frame := append(wire.GetFrame(0)[:0], d.Encode()...)
	defer wire.PutFrame(frame)
	if d, err = delta.DecodeDelta(frame); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	b := newBlob(basis)
	b.sums = sumsOf(basis)
	got, built, err := applyDelta(b, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got.bytes(), want) {
		t.Fatalf("%s: built %d B that differ from Apply's %d", label, got.size(), len(want))
	}
	if len(got.sums) != protocol.NumLeaves(len(want)) {
		t.Fatalf("%s: %d leaf sums for %d B", label, len(got.sums), len(want))
	}
	builtLen := 0
	for i, l := range got.leaves {
		var sum protocol.LeafSum
		if got.sums != nil {
			sum = got.sums[i]
		}
		if i < len(b.leaves) && len(l) == len(b.leaves[i]) && unsafe.SliceData(l) == unsafe.SliceData(b.leaves[i]) {
			carried++
			if got.sums != nil && b.sums != nil && sum != b.sums[i] {
				t.Fatalf("%s: leaf %d shared without its sum", label, i)
			}
			continue
		}
		builtLen += len(l)
		if sum != (protocol.LeafSum{}) {
			t.Fatalf("%s: built leaf %d came with a sum", label, i)
		}
		if overlaps(l, basis) || overlaps(l, frame[:cap(frame)]) {
			t.Fatalf("%s: built leaf %d aliases the basis or the frame", label, i)
		}
		for _, op := range d.Ops {
			if overlaps(l, op.Data) {
				t.Fatalf("%s: built leaf %d aliases a literal", label, i)
			}
		}
	}
	if built != builtLen {
		t.Fatalf("%s: %d B built reported, %d B of leaves not shared", label, built, builtLen)
	}
	fp, hashed := protocol.SumLeaves(got.leaves, got.sums)
	if want := protocol.Sum(want); fp != want {
		t.Fatalf("%s: incremental identity %x, want %x", label, fp, want)
	}
	if !slices.Equal(got.sums, sumsOf(want)) {
		t.Fatalf("%s: leaf sums differ from the result's", label)
	}
	return carried, hashed
}

// TestCarryLeavesMatchesSum: over seeded edit scripts — in-place
// edits, moved and repeated blocks, truncation and growth, a partial
// last leaf, empty and single-leaf files — at block sizes below, at,
// above and across the leaf grid, the result applyDelta builds holds
// delta.Apply's bytes, and the leaf sums it carries from its basis and
// the ones hashed afresh give exactly protocol.Sum of the result
// (checkCarry). Only the leaves carried are skipped, and some always
// are.
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

// TestCarryLeavesRefusesMovedLeaves pins the two conditions of sharing
// a leaf. A whole leaf copied to another leaf's place — the same bytes,
// at another offset — is built and hashed, and so is the last leaf of a
// basis cut short inside it, whose bytes are all in place but fewer.
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
// basis of up to six leaves, and checks the leaf-shared result against
// delta.Apply's and its carried identity against protocol.Sum
// (checkCarry).
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

// TestDeltaHashesOnlyTouchedLeaves is the witness of the leaf-shared
// content store, read from syncd_content_hash_bytes_total and
// syncd_delta_built_bytes_total: a full upload of a 4 MiB file hashes
// exactly its size and builds nothing, and a delta of eight 256 B edits
// to it (the large-modify workload's) builds exactly its eight touched
// leaves and hashes at most those and 8 KiB of slack, not the file.
// After a reopen the basis's leaf sums are gone, so the first delta
// hashes its whole result — but its bytes are still shared, so it
// builds only the touched leaves; the next one is back to hashing them
// alone.
func TestDeltaHashesOnlyTouchedLeaves(t *testing.T) {
	const size = 4 << 20
	const bound, touched = 8*leaf + 8<<10, 8 * leaf
	dir := t.TempDir()
	data := content.Random(size, 1).Bytes()
	var hashed, built func() int64
	open := func() *Server {
		reg := obs.NewRegistry()
		srv, err := OpenServer(ServerConfig{StateDir: dir, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		hashed = reg.Counter("syncd_content_hash_bytes_total", "").Value
		built = reg.Counter("syncd_delta_built_bytes_total", "").Value
		return srv
	}
	// upload returns the bytes the server hashed and built for it.
	upload := func(srv *Server, c *Client, what string, wantDelta bool) (h, b int64) {
		t.Helper()
		h0, b0 := hashed(), built()
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
		h, b = hashed()-h0, built()-b0
		t.Logf("%s: %d B hashed, %d B built", what, h, b)
		return h, b
	}

	srv := open()
	c, closeC := pipeClient(t, srv, "alice", "a", nil)
	if h, b := upload(srv, c, "full upload", false); h != size || b != 0 {
		t.Errorf("full upload hashed %d B and built %d, want exactly its %d and none", h, b, size)
	}
	data = editRegions(data, 8, 16) // 256 B at 4 KiB into each eighth, as large-modify edits
	if h, b := upload(srv, c, "delta", true); h > bound || b != touched {
		t.Errorf("delta of 8 x 256 B hashed %d B and built %d, want at most %d and exactly %d", h, b, bound, touched)
	}
	closeC()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv = open()
	defer srv.Close()
	c, closeC = pipeClient(t, srv, "alice", "a", nil)
	defer closeC()
	if _, err := c.List(); err != nil { // a fresh client learns the file from a listing
		t.Fatal(err)
	}
	data = editRegions(data, 8, 17)
	if h, b := upload(srv, c, "first delta after reopen", true); h != size || b != touched {
		t.Errorf("first delta after reopen hashed %d B and built %d, want the whole result's %d and exactly %d", h, b, size, touched)
	}
	data = editRegions(data, 8, 18)
	if h, b := upload(srv, c, "second delta after reopen", true); h > bound || b != touched {
		t.Errorf("second delta after reopen hashed %d B and built %d, want at most %d and exactly %d", h, b, bound, touched)
	}
}

// TestDeltaEditsCostTouchedLeavesOfRAM: 32 edits of a 4 MiB file, each
// eight 256 B regions no earlier edit wrote (the large-modify workload's
// shape, never toggling back), leave 32 new contents on an in-RAM server
// that keeps every version. Each shares its basis's untouched leaves,
// so the live heap grows by the eight leaves each edit built and their
// bookkeeping (leaf slices and sums: ≈ 14 KiB per 4 MiB version), not
// by 32 copies of the file.
func TestDeltaEditsCostTouchedLeavesOfRAM(t *testing.T) {
	const size, edits = 4 << 20, 32
	const bound = edits * (8*leaf + 32<<10)
	leakCheck(t)
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	c, closeC := pipeClient(t, srv, "alice", "a", nil)
	defer closeC()
	data := content.Random(size, 1).Bytes()
	if _, err := c.Upload("big", data); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := range edits {
		for k := range 8 {
			region := data[k*(size/8)+i*256:][:256]
			for j := range region {
				region[j] ^= 0x5A
			}
		}
		st, err := c.Upload("big", data)
		if err != nil || !st.DeltaSync {
			t.Fatalf("edit %d: %+v, %v", i, st, err)
		}
	}
	grew := heap() - before
	t.Logf("%d edits grew the live heap by %d B (%d B per edit)", edits, grew, grew/edits)
	if got, _ := srv.FileContent("alice", "big"); !bytes.Equal(got, data) {
		t.Fatal("server holds other bytes")
	}
	if grew > bound {
		t.Errorf("%d edits grew the live heap by %d B, want at most %d", edits, grew, bound)
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

// TestConcurrentDeltasShareBlobs: two sessions toggle two files between
// the same two contents, on a server reopened from its state dir, so
// both stored blobs start without leaf sums. Each delta's result is
// already stored: the first to produce it gives the stored blob its
// sums under s.mu while the other session reads that blob as its basis.
// Run under -race; afterwards every kept sum is its leaf's and each file
// holds the bytes last sent.
func TestConcurrentDeltasShareBlobs(t *testing.T) {
	const size, rounds = 256 << 10, 20
	dir := t.TempDir()
	x := content.Random(size, 7).Bytes()
	y := editRegions(x, 8, 3)
	srv, err := OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, closeC := pipeClient(t, srv, "alice", "a", nil)
	for _, up := range []struct {
		name string
		data []byte
	}{{"a", x}, {"b", x}, {"a", y}, {"b", y}} {
		if _, err := c.Upload(up.name, up.data); err != nil {
			t.Fatal(err)
		}
	}
	closeC()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err = OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errs := make(chan error, 2)
	for _, name := range []string{"a", "b"} {
		c, closeC := pipeClient(t, srv, "alice", name, nil)
		defer closeC()
		go func() {
			if _, err := c.List(); err != nil {
				errs <- err
				return
			}
			for i := range rounds {
				data := x
				if i%2 == 1 {
					data = y
				}
				if st, err := c.Upload(name, data); err != nil || !st.DeltaSync {
					errs <- fmt.Errorf("%s, round %d: %+v, %v", name, i, st, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkIdentities(t, srv)
	for _, name := range []string{"a", "b"} {
		if got, _ := srv.FileContent("alice", name); !bytes.Equal(got, y) {
			t.Errorf("%s holds other bytes than its last upload", name)
		}
	}
}
