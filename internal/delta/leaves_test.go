package delta

// Leaf-guided scan: ComputeLeaves on a file held the way a sync client
// holds it — its block signature and its leaf sums, carried forward
// from delta to delta — against Compute on the same inputs.

import (
	"bytes"
	"fmt"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/protocol"
)

// heldFile is a file as a client holds it after syncing it: the bytes
// (kept here only to check Apply), their block signature, and their
// leaf sums as far as known.
type heldFile struct {
	data   []byte
	sig    Signature
	leaves []protocol.LeafSum
}

// hold is a full upload: every leaf sum known, as the file's identity
// hash leaves them.
func hold(data []byte, bs int) *heldFile {
	leaves := make([]protocol.LeafSum, protocol.NumLeaves(len(data)))
	protocol.SumInto(data, leaves)
	return &heldFile{data: data, sig: Sign(data, bs), leaves: leaves}
}

// unknownLeaves counts the zero entries of h's leaf sums.
func (h *heldFile) unknownLeaves() int {
	n := 0
	for _, s := range h.leaves {
		if s == (protocol.LeafSum{}) {
			n++
		}
	}
	return n
}

// sync cuts the guided delta from h to target and checks it: its ops
// are Compute's, it applies to exactly target, every leaf sum it keeps
// is its leaf's, and the bytes it did not roll are exactly the leaves
// whose sums it kept. Then h holds target, its signature carried by
// Resign and its leaf sums by the scan, as a client's acknowledged
// delta leaves them.
func (h *heldFile) sync(t testing.TB, target []byte, what string) ScanStats {
	t.Helper()
	next := make([]protocol.LeafSum, protocol.NumLeaves(len(target)))
	got, st := ComputeLeaves(h.sig, target, h.leaves, next)
	if want := Compute(h.sig, target); !deltasEqual(got, want) {
		t.Fatalf("%s: guided delta has %d ops (%d literal B, wire %d B), Compute %d ops (%d literal B, wire %d B)",
			what, len(got.Ops), got.LiteralBytes(), got.WireSize(), len(want.Ops), want.LiteralBytes(), want.WireSize())
	}
	out, err := Apply(h.data, got)
	if err != nil || !bytes.Equal(out, target) {
		t.Fatalf("%s: guided delta does not rebuild the target (%v)", what, err)
	}
	kept := 0
	for k, s := range next {
		if s == (protocol.LeafSum{}) {
			continue
		}
		leaf := target[k*protocol.LeafSize : min((k+1)*protocol.LeafSize, len(target))]
		if s != protocol.SumLeaf(leaf) {
			t.Fatalf("%s: leaf %d kept a sum that is not its own", what, k)
		}
		kept += len(leaf)
	}
	if len(next) > 0 && len(target)-st.Rolled != kept {
		t.Fatalf("%s: rolled %d of %d B, but kept the sums of %d B of leaves", what, st.Rolled, len(target), kept)
	}
	h.sig, _ = Resign(h.sig, got, target)
	h.data, h.leaves = target, next
	return st
}

// editKinds are the edits the property harness draws.
var editKinds = []string{"in-place", "in-place", "in-place", "insert", "delete", "truncate", "append"}

// edit applies one edit of kind to a copy of data.
func edit(r *deltaRand, data []byte, kind string) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return r.bytes(1 + r.intn(5000))
	}
	switch kind {
	case "in-place": // one to four regions rewritten, some at leaf edges
		for range 1 + r.intn(4) {
			off := r.intn(len(out))
			if r.intn(3) == 0 {
				off = max(0, (off/protocol.LeafSize+1)*protocol.LeafSize-r.intn(600))
			}
			end := min(len(out), off+1+r.intn(600))
			for i := off; i < end; i++ {
				out[i] ^= byte(1 + r.intn(255))
			}
		}
	case "insert":
		pos := r.intn(len(out) + 1)
		out = append(out[:pos:pos], append(r.bytes(1+r.intn(700)), data[pos:]...)...)
	case "delete":
		pos := r.intn(len(out))
		out = append(out[:pos:pos], out[min(len(out), pos+1+r.intn(700)):]...)
	case "truncate":
		out = out[:len(out)-r.intn(len(out)/4+1)]
	case "append":
		out = append(out, r.bytes(1+r.intn(20_000))...)
	}
	return out
}

// TestComputeLeavesProperty is the leaf-guided scan's property harness:
// seeded files at block sizes that divide the leaf and ones that do
// not, random or built of repeated blocks, each edited round after
// round — in place, by insertion, deletion, truncation and append —
// and synced through one heldFile, so rounds run on every leaf sum
// known (first edits), on sums a delta carried (repeat edits), and on
// leaves whose sums an earlier delta left unknown. Every delta passes
// heldFile.sync's checks; the coverage line counts each case, and a
// case never reached fails.
func TestComputeLeavesProperty(t *testing.T) {
	r := deltaRand(0x1EAF)
	const L = protocol.LeafSize
	var firstSkips, repeatSkips, unknownRounds, failedChecks, shiftedRounds, rounds int
	for file := range 40 {
		size := []int{L, L + 1, 3*L + 777, 8 * L, 21*L + 5, 10_000}[file%6]
		bs := []int{512, 1024, 2048, 16 << 10, 3000, 64, 512, 512}[file%8]
		data := r.bytes(size)
		if file%5 == 4 { // repeated blocks: every copy has duplicates to choose from
			pattern := r.bytes(2 * bs)
			for i := range data {
				data[i] = pattern[i%len(pattern)]
			}
		}
		h := hold(data, bs)
		for round := range 8 {
			kind := editKinds[r.intn(len(editKinds))]
			if round > 0 && r.intn(3) == 0 {
				kind = "in-place" // same leaves again, likely
			}
			unknown := h.unknownLeaves() > 0
			st := h.sync(t, edit(&r, h.data, kind), fmt.Sprintf("file %d (%d B at %d B blocks) round %d, %s", file, size, bs, round, kind))
			rounds++
			skipped := len(h.data) - st.Rolled
			switch {
			case skipped > 0 && round == 0:
				firstSkips++
			case skipped > 0:
				repeatSkips++
			}
			if unknown {
				unknownRounds++
			}
			if st.LeafHashed > skipped {
				failedChecks++
			}
			if kind == "insert" || kind == "delete" {
				shiftedRounds++
			}
		}
	}
	t.Logf("%d rounds: %d first edits and %d repeat edits skipped leaves, %d ran on unknown leaf sums, %d found a changed leaf, %d shifted the file",
		rounds, firstSkips, repeatSkips, unknownRounds, failedChecks, shiftedRounds)
	if firstSkips == 0 || repeatSkips == 0 || unknownRounds == 0 || failedChecks == 0 || shiftedRounds == 0 {
		t.Fatal("a case of the harness was never reached")
	}
}

// FuzzComputeLeaves drives one held file through a fuzzed edit script,
// syncing after every edit, so later edits run on leaf sums earlier
// deltas carried or left unknown. Each five bytes of the script are one
// edit: its kind (in place, insert, delete, truncate, append), where in
// the file it falls, and how many bytes it takes. Every delta must pass
// heldFile.sync's checks: Compute's ops, Apply gives the target, every
// kept leaf sum is its leaf's. The seeds replay in the ordinary test
// run; `make fuzz` explores beyond them.
func FuzzComputeLeaves(f *testing.F) {
	f.Add(uint64(5*protocol.LeafSize)<<8, uint8(1), []byte{0, 0, 64, 0, 1, 0, 0, 64, 0, 1, 1, 0, 16, 9, 0})
	f.Add(uint64(3*protocol.LeafSize+100)<<8, uint8(0), []byte{4, 0, 0, 0, 40, 0, 255, 255, 200, 0, 3, 0, 128, 0, 0})
	f.Add(uint64(2*protocol.LeafSize)<<8, uint8(4), []byte{2, 0, 128, 16, 0, 0, 0, 0, 1, 0})
	f.Add(uint64(6*protocol.LeafSize-1)<<8, uint8(5), []byte{0, 0, 32, 0, 2, 0, 0, 32, 0, 2})
	f.Fuzz(func(t *testing.T, seed uint64, pick uint8, script []byte) {
		r := deltaRand(seed | 1)
		bs := []int{512, 1024, 4096, protocol.LeafSize, 3000, 64}[int(pick)%6]
		h := hold(r.bytes(int(seed>>8%(6*protocol.LeafSize))), bs)
		for round := 0; len(script) >= 5 && round < 8; round++ {
			kind, at, n := script[0]%5, int(script[1])|int(script[2])<<8, 1+(int(script[3])|int(script[4])<<8)
			script = script[5:]
			target := append([]byte(nil), h.data...)
			pos := int(int64(at) * int64(len(target)) >> 16)
			end := min(len(target), pos+n)
			switch kind {
			case 0:
				for i := pos; i < end; i++ {
					target[i] ^= 0x5A
				}
			case 1:
				target = append(target[:pos:pos], append(r.bytes(n%4096), h.data[pos:]...)...)
			case 2:
				target = append(target[:pos:pos], target[end:]...)
			case 3:
				target = target[:pos]
			case 4:
				target = append(target, r.bytes(n%(2*protocol.LeafSize))...)
			}
			h.sync(t, target, fmt.Sprintf("round %d (%d B at %d B blocks, edit %d at %d of %d B)", round, len(h.data), bs, kind, pos, n))
		}
	})
}

// TestComputeLeavesRefusesMisfitSums: leaf-sum lists of the wrong length
// are a caller's bug, not a different file.
func TestComputeLeavesRefusesMisfitSums(t *testing.T) {
	data := content.Random(3*protocol.LeafSize, 1).Bytes()
	sig := Sign(data, 512)
	refused := func(what string, basis, target []protocol.LeafSum) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("ComputeLeaves took %s", what)
			}
		}()
		ComputeLeaves(sig, data, basis, target)
	}
	refused("2 basis leaf sums for 3 leaves", make([]protocol.LeafSum, 2), nil)
	refused("4 target leaf sums for 3 leaves", nil, make([]protocol.LeafSum, 4))
}

// toggle XORs 256 B at a 256 B-aligned offset inside each of regions
// equal stripes of data, the offsets drawn once from seed: the edit the
// large-modify and mixed-rw workloads make, twice over a restore.
func toggle(data []byte, regions int, seed uint64) {
	r := deltaRand(seed)
	stripe := len(data) / regions
	for k := range regions {
		off := k*stripe + r.intn(stripe/256)*256
		for i := off; i < off+256; i++ {
			data[i] ^= 0xA5
		}
	}
}

// steadyEdit is a held file in the steady state of repeated toggles: it
// was uploaded, toggled and synced once (so the toggled leaves' sums are
// unknown), and target is the next toggle.
func steadyEdit(tb testing.TB, size, regions int) (h *heldFile, target []byte) {
	data := append([]byte(nil), content.Random(int64(size), 1).Bytes()...)
	h = hold(append([]byte(nil), data...), 512)
	toggle(data, regions, 7)
	h.sync(tb, append([]byte(nil), data...), "first toggle")
	toggle(data, regions, 7)
	return h, data
}

// BenchmarkComputeLeaves times the guided scan against Compute on the
// same held file and edit: the large-modify workload's steady state (a
// 4 MiB file, eight 256 B regions toggled again), mixed-rw's (64 KiB,
// two regions), and 137 bytes inserted near the front of a 1 MiB file
// whose leaf sums are all known, where one leaf check fails and the
// shifted rest is Compute's scan.
func BenchmarkComputeLeaves(b *testing.B) {
	insertShift := func(tb testing.TB) (*heldFile, []byte) {
		basis, target := insertShift1MB()
		return hold(basis, 512), target
	}
	for _, shape := range []struct {
		name  string
		setup func(testing.TB) (*heldFile, []byte)
	}{
		{"large-modify", func(tb testing.TB) (*heldFile, []byte) { return steadyEdit(tb, 4<<20, 8) }},
		{"mixed-rw", func(tb testing.TB) (*heldFile, []byte) { return steadyEdit(tb, 64<<10, 2) }},
		{"insert-shift", insertShift},
	} {
		h, target := shape.setup(b)
		next := make([]protocol.LeafSum, protocol.NumLeaves(len(target)))
		b.Run(shape.name+"/guided", func(b *testing.B) {
			b.SetBytes(int64(len(target)))
			b.ReportAllocs()
			for b.Loop() {
				ComputeLeaves(h.sig, target, h.leaves, next)
			}
		})
		b.Run(shape.name+"/compute", func(b *testing.B) {
			b.SetBytes(int64(len(target)))
			b.ReportAllocs()
			for b.Loop() {
				Compute(h.sig, target)
			}
		})
	}
}
