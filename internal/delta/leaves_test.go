package delta

// Leaf-guided scan: ComputeLeaves on a file held the way a sync client
// holds it — its block signature carried forward from delta to delta —
// told which leaves each edit left unchanged, against Compute on the
// same inputs.

import (
	"bytes"
	"fmt"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/protocol"
)

// heldFile is a file as a client holds it after syncing it: the bytes
// (kept here only to check Apply and to judge leaves) and their block
// signature.
type heldFile struct {
	data []byte
	sig  Signature
}

// hold is a full upload.
func hold(data []byte, bs int) *heldFile {
	return &heldFile{data: data, sig: Sign(data, bs)}
}

// leafAt is leaf k of data, empty past its end.
func leafAt(data []byte, k int) []byte {
	off := min(k*protocol.LeafSize, len(data))
	return data[off:min(off+protocol.LeafSize, len(data))]
}

// unchangedLeaves is the verdict a client's leaf tags give for target
// against basis, taken from the bytes themselves: leaf k is unchanged
// when it equals the basis's leaf k. It returns the bytes of those
// leaves too.
func unchangedLeaves(basis, target []byte) (unchanged []bool, bytesUnchanged int) {
	unchanged = make([]bool, protocol.NumLeaves(len(target)))
	for k := range unchanged {
		if l := leafAt(target, k); bytes.Equal(l, leafAt(basis, k)) {
			unchanged[k] = true
			bytesUnchanged += len(l)
		}
	}
	return unchanged, bytesUnchanged
}

// sync cuts the guided delta from h to target and checks it: its ops
// are Compute's, it applies to exactly target, and it skipped no byte
// outside the leaves the verdict names unchanged. Then h holds target,
// its signature carried by Resign, as a client's acknowledged delta
// leaves it. It returns the bytes the scan rolled and the bytes of
// unchanged leaves it was told of.
func (h *heldFile) sync(t testing.TB, target []byte, what string) (rolled, bytesUnchanged int) {
	t.Helper()
	unchanged, bytesUnchanged := unchangedLeaves(h.data, target)
	got, rolled := ComputeLeaves(h.sig, target, unchanged)
	if want := Compute(h.sig, target); !deltasEqual(got, want) {
		t.Fatalf("%s: guided delta has %d ops (%d literal B, wire %d B), Compute %d ops (%d literal B, wire %d B)",
			what, len(got.Ops), got.LiteralBytes(), got.WireSize(), len(want.Ops), want.LiteralBytes(), want.WireSize())
	}
	out, err := Apply(h.data, got)
	if err != nil || !bytes.Equal(out, target) {
		t.Fatalf("%s: guided delta does not rebuild the target (%v)", what, err)
	}
	if skipped := len(target) - rolled; skipped < 0 || skipped > bytesUnchanged {
		t.Fatalf("%s: rolled %d of %d B, but only %d B of leaves are unchanged", what, rolled, len(target), bytesUnchanged)
	}
	h.sig, _ = Resign(h.sig, got, target)
	h.data = target
	return rolled, bytesUnchanged
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
// and synced through one heldFile, each delta told which leaves are
// byte for byte unchanged. Rounds run on a file just uploaded (first
// edits) and on one a delta carried (repeat edits). Every delta passes
// heldFile.sync's checks; the coverage line counts each case, and a
// case never reached fails.
func TestComputeLeavesProperty(t *testing.T) {
	r := deltaRand(0x1EAF)
	const L = protocol.LeafSize
	var firstSkips, repeatSkips, changedRounds, declinedRounds, shiftedRounds, rounds int
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
			target := edit(&r, h.data, kind)
			rolled, bytesUnchanged := h.sync(t, target, fmt.Sprintf("file %d (%d B at %d B blocks) round %d, %s", file, size, bs, round, kind))
			rounds++
			skipped := len(target) - rolled
			switch {
			case skipped > 0 && round == 0:
				firstSkips++
			case skipped > 0:
				repeatSkips++
			}
			if protocol.NumLeaves(len(target)) > 0 && bytesUnchanged < len(target) {
				changedRounds++
			}
			if skipped < bytesUnchanged && protocol.LeafSize%bs == 0 {
				declinedRounds++
			}
			if kind == "insert" || kind == "delete" {
				shiftedRounds++
			}
		}
	}
	t.Logf("%d rounds: %d first edits and %d repeat edits skipped leaves, %d changed a leaf, %d rolled an unchanged leaf not in place, %d shifted the file",
		rounds, firstSkips, repeatSkips, changedRounds, declinedRounds, shiftedRounds)
	if firstSkips == 0 || repeatSkips == 0 || changedRounds == 0 || declinedRounds == 0 || shiftedRounds == 0 {
		t.Fatal("a case of the harness was never reached")
	}
}

// FuzzComputeLeaves drives one held file through a fuzzed edit script,
// syncing after every edit, each delta told which leaves are byte for
// byte unchanged. Each five bytes of the script are one edit: its kind
// (in place, insert, delete, truncate, append), where in the file it
// falls, and how many bytes it takes. Every delta must pass
// heldFile.sync's checks: Compute's ops, Apply gives the target, no
// byte skipped outside an unchanged leaf. The seeds replay in the
// ordinary test run; `make fuzz` explores beyond them.
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

// TestComputeLeavesRefusesMisfitSums: a list of leaf verdicts of the
// wrong length is a caller's bug, not a different file.
func TestComputeLeavesRefusesMisfitSums(t *testing.T) {
	data := content.Random(3*protocol.LeafSize, 1).Bytes()
	sig := Sign(data, 512)
	refused := func(what string, unchanged []bool) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("ComputeLeaves took %s", what)
			}
		}()
		ComputeLeaves(sig, data, unchanged)
	}
	refused("2 leaf verdicts for 3 leaves", make([]bool, 2))
	refused("4 leaf verdicts for 3 leaves", make([]bool, 4))
	refused("an empty, non-nil list for 3 leaves", []bool{})
}

// TestComputeLeavesIgnoresVerdictsPastTheBasis: a leaf verdict the
// basis's size rules out — a leaf past the basis's end, or a last leaf
// that ends elsewhere than the basis — skips nothing, so the scan stays
// inside the basis's blocks and its ops stay Compute's.
func TestComputeLeavesIgnoresVerdictsPastTheBasis(t *testing.T) {
	basis := content.Random(2*protocol.LeafSize+100, 2).Bytes()
	sig := Sign(basis, 512)
	for _, target := range [][]byte{
		append(bytes.Clone(basis), content.Random(protocol.LeafSize, 3).Bytes()...),
		basis[:2*protocol.LeafSize+50],
	} {
		all := make([]bool, protocol.NumLeaves(len(target)))
		for k := range all {
			all[k] = true
		}
		got, rolled := ComputeLeaves(sig, target, all)
		if want := Compute(sig, target); !deltasEqual(got, want) {
			t.Errorf("%d B target: guided ops differ from Compute's", len(target))
		}
		if want := len(target) - 2*protocol.LeafSize; rolled != want {
			t.Errorf("%d B target: rolled %d B, want the last leaf's %d", len(target), rolled, want)
		}
	}
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
// was uploaded, toggled and synced once, and target is the next toggle.
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
// two regions), and 137 bytes inserted near the front of a 1 MiB file,
// where every leaf from the insertion on is changed and the shifted rest
// is Compute's scan.
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
		unchanged, _ := unchangedLeaves(h.data, target)
		b.Run(shape.name+"/guided", func(b *testing.B) {
			b.SetBytes(int64(len(target)))
			b.ReportAllocs()
			for b.Loop() {
				ComputeLeaves(h.sig, target, unchanged)
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
