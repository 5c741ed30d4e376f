package delta

// Differential harness: the optimized Compute (tag bitmap, inlined
// roll, literal arena, copy runs) and weakSum (unrolled) against their
// retained references — computeRef's per-block copies merged into runs
// — op for op and byte for byte, across random bases, edit
// scripts, and block sizes — including adversarial all-equal-byte
// inputs where every position weak-matches every block, and disjoint
// random inputs where nothing ever matches. Resign, which has no
// retained twin, is held to Sign itself: same target, same block size,
// field for field.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

type deltaRand uint64

func (r *deltaRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = deltaRand(x)
	return x
}

func (r *deltaRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *deltaRand) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.next())
	}
	return out
}

func deltasEqual(a, b Delta) bool {
	if a.BlockSize != b.BlockSize || a.TargetSize != b.TargetSize || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i].Kind != b.Ops[i].Kind || a.Ops[i].Index != b.Ops[i].Index ||
			a.Ops[i].Count != b.Ops[i].Count || !bytes.Equal(a.Ops[i].Data, b.Ops[i].Data) {
			return false
		}
	}
	return true
}

// coalesce turns computeRef's one-op-per-block copies into runs: each
// of its copy ops is one block, and a copy of the block after the
// previous op's last extends that op.
func coalesce(d Delta) Delta {
	ops := d.Ops
	d.Ops = nil
	for _, op := range ops {
		if op.Kind == OpCopy {
			if n := len(d.Ops); n > 0 && d.Ops[n-1].Kind == OpCopy && d.Ops[n-1].Index+d.Ops[n-1].Count == op.Index {
				d.Ops[n-1].Count++
				continue
			}
			op.Count = 1
		}
		d.Ops = append(d.Ops, op)
	}
	return d
}

// wireSizeRef is WireSize as it was written for one op per copied
// block: 4 + len per literal, 8 per chain of consecutive block indices.
func wireSizeRef(d Delta) int {
	size := 0
	i := 0
	for i < len(d.Ops) {
		if d.Ops[i].Kind == OpLiteral {
			size += 4 + len(d.Ops[i].Data)
			i++
			continue
		}
		j := i
		for j+1 < len(d.Ops) && d.Ops[j+1].Kind == OpCopy && d.Ops[j+1].Index == d.Ops[j].Index+1 {
			j++
		}
		size += 8
		i = j + 1
	}
	return size
}

// TestDifferentialWeakSum holds the unrolled checksum to the textbook
// form on every length through the unroll boundary and beyond.
func TestDifferentialWeakSum(t *testing.T) {
	r := deltaRand(42)
	for n := 0; n <= 300; n++ {
		data := r.bytes(n)
		if got, want := weakSum(data), weakSumRef(data); got != want {
			t.Fatalf("len %d: weakSum %08x, reference %08x", n, got, want)
		}
	}
	for iter := 0; iter < 200; iter++ {
		data := r.bytes(1 + r.intn(100_000))
		if got, want := weakSum(data), weakSumRef(data); got != want {
			t.Fatalf("len %d: weakSum %08x, reference %08x", len(data), got, want)
		}
	}
}

// mutateScript applies a random edit script (mutations, insertions,
// deletions) to a copy of basis.
func mutateScript(r *deltaRand, basis []byte) []byte {
	target := append([]byte(nil), basis...)
	for k := 0; k < r.intn(8); k++ {
		if len(target) == 0 {
			target = r.bytes(1 + r.intn(1000))
			continue
		}
		switch r.intn(3) {
		case 0:
			target[r.intn(len(target))] ^= byte(1 + r.intn(255))
		case 1:
			pos := r.intn(len(target) + 1)
			ins := r.bytes(r.intn(500))
			target = append(target[:pos:pos], append(ins, target[pos:]...)...)
		default:
			pos := r.intn(len(target))
			n := r.intn(len(target) - pos + 1)
			target = append(target[:pos:pos], target[pos+n:]...)
		}
	}
	return target
}

// TestDifferentialCompute holds Compute to computeRef across random
// (basis, edit script, block size) draws, and verifies both round-trip.
func TestDifferentialCompute(t *testing.T) {
	r := deltaRand(0xC0FFEE)
	for iter := 0; iter < 300; iter++ {
		bs := 1 + r.intn(2048) // incl. bs=1 and bs > len(basis)
		basis := r.bytes(r.intn(20_000))
		var target []byte
		switch iter % 4 {
		case 0: // random edit script of the basis
			target = mutateScript(&r, basis)
		case 1: // disjoint content: nothing ever matches
			target = r.bytes(r.intn(20_000))
		case 2: // all-identical bytes on both sides: every position
			// weak-matches every block, chains are maximal
			b := byte(r.next())
			for i := range basis {
				basis[i] = b
			}
			target = make([]byte, r.intn(20_000))
			for i := range target {
				target[i] = b
			}
		default: // pure append
			target = append(append([]byte(nil), basis...), r.bytes(r.intn(2000))...)
		}
		sig := Sign(basis, bs)
		got := Compute(sig, target)
		want := coalesce(computeRef(sig, target))
		if !deltasEqual(got, want) {
			t.Fatalf("iter %d (bs=%d, len basis=%d target=%d): optimized delta diverged from reference\ngot  %d ops, %d literal\nwant %d ops, %d literal",
				iter, bs, len(basis), len(target),
				len(got.Ops), got.LiteralBytes(), len(want.Ops), want.LiteralBytes())
		}
		if gotWire, wantWire := got.WireSize(), wireSizeRef(computeRef(sig, target)); gotWire != wantWire {
			t.Fatalf("iter %d: WireSize %d, the per-block reference prices it at %d", iter, gotWire, wantWire)
		}
		applied, err := Apply(basis, got)
		if err != nil {
			t.Fatalf("iter %d: Apply: %v", iter, err)
		}
		if !bytes.Equal(applied, target) {
			t.Fatalf("iter %d: round-trip mismatch", iter)
		}
	}
}

// TestComputeDoesNotAliasTarget: the arena seal must leave no literal
// op sharing memory with the caller's target — mutating the target
// after Compute must not change the delta.
func TestComputeDoesNotAliasTarget(t *testing.T) {
	r := deltaRand(7)
	basis := r.bytes(10_000)
	target := mutateScript(&r, basis)
	sig := Sign(basis, 512)
	d := Compute(sig, target)
	want, err := Apply(basis, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range target {
		target[i] ^= 0xAA
	}
	got, err := Apply(basis, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("delta changed when the caller mutated target after Compute: literal ops alias the input")
	}
}

// TestDifferentialComputeTagCollisions forces distinct weak sums that
// fold to the same 16-bit tag, so bitmap hits that miss the weak table
// are exercised (the bit says "maybe", the table says no).
func TestDifferentialComputeTagCollisions(t *testing.T) {
	// Two windows with different weak sums but equal tags: tagOf xors the
	// halves, so swap-compensating a and b keeps the tag. Rather than
	// construct one analytically, scan random draws for naturally
	// colliding pairs and assert the full scan still matches reference.
	r := deltaRand(0xFACE)
	for iter := 0; iter < 50; iter++ {
		bs := 16 + r.intn(64)
		basis := r.bytes(4096)
		target := r.bytes(4096)
		sig := Sign(basis, bs)
		if got, want := Compute(sig, target), coalesce(computeRef(sig, target)); !deltasEqual(got, want) {
			t.Fatalf("iter %d (bs=%d): diverged under tag-collision sweep", iter, bs)
		}
	}
}

// resignCase is one draw of the Resign harness: a basis, the block
// size its signature uses, and a target reachable from it.
type resignCase struct {
	kind   string
	bs     int
	basis  []byte
	target []byte
}

// resignDraw builds the iter-th case. Kinds cycle so every family gets
// an equal share of the draws; sizes straddle the block size so short
// final blocks, exact multiples and sub-block files all occur.
func resignDraw(r *deltaRand, iter int) resignCase {
	bs := 1 + r.intn(512)
	if iter%7 == 0 {
		bs = 1 << (3 + r.intn(8)) // power-of-two sizes, like the live default
	}
	basis := r.bytes(r.intn(24 * bs))
	c := resignCase{bs: bs, basis: basis}
	switch iter % 11 {
	case 0:
		c.kind = "in-place edits"
		c.target = append([]byte(nil), basis...)
		for k := 0; k < 1+r.intn(6) && len(c.target) > 0; k++ {
			c.target[r.intn(len(c.target))] ^= byte(1 + r.intn(255))
		}
	case 1:
		c.kind = "inserts and deletes shifting alignment"
		c.target = mutateScript(r, basis)
	case 2:
		c.kind = "block-multiple insert keeps alignment"
		pos := 0
		if nb := len(basis) / bs; nb > 0 {
			pos = r.intn(nb+1) * bs
		}
		ins := r.bytes((1 + r.intn(3)) * bs)
		c.target = append(append(append([]byte(nil), basis[:pos]...), ins...), basis[pos:]...)
	case 3:
		c.kind = "truncation"
		c.target = append([]byte(nil), basis[:r.intn(len(basis)+1)]...)
	case 4:
		c.kind = "growth"
		c.target = append(append([]byte(nil), basis...), r.bytes(1+r.intn(3*bs))...)
	case 5:
		c.kind = "empty target"
	case 6:
		c.kind = "all literal"
		c.target = r.bytes(r.intn(24 * bs))
	case 7:
		c.kind = "all copy"
		c.target = append([]byte(nil), basis...)
	case 8:
		c.kind = "duplicate-block basis"
		blk := r.bytes(bs)
		c.basis = nil
		for k := 0; k < 2+r.intn(10); k++ {
			c.basis = append(c.basis, blk...)
		}
		c.basis = append(c.basis, blk[:r.intn(bs)]...)
		c.target = mutateScript(r, c.basis)
	case 9:
		c.kind = "min-size files"
		sizes := []int{0, 1, bs - 1, bs, bs + 1}
		c.basis = r.bytes(sizes[r.intn(len(sizes))])
		c.target = append([]byte(nil), c.basis...)
		if n := sizes[r.intn(len(sizes))]; n < len(c.target) {
			c.target = c.target[:n]
		} else {
			c.target = append(c.target, r.bytes(n-len(c.target))...)
		}
		if len(c.target) > 0 && r.intn(2) == 0 {
			c.target[r.intn(len(c.target))] ^= 0x5A
		}
	default:
		c.kind = "exact block multiple"
		c.basis = r.bytes((1 + r.intn(12)) * bs)
		c.target = append([]byte(nil), c.basis...)
		c.target[r.intn(len(c.target))] ^= 0xFF
	}
	return c
}

func requireResignEqualsSign(t *testing.T, label string, old Signature, d Delta, target []byte) int {
	t.Helper()
	got, hashed := Resign(old, d, target)
	want := Sign(target, old.BlockSize)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (bs=%d, %d ops, target %d B): Resign diverged from Sign\ngot  %d blocks, size %d\nwant %d blocks, size %d",
			label, old.BlockSize, len(d.Ops), len(target), len(got.Blocks), got.FileSize, len(want.Blocks), want.FileSize)
	}
	if hashed < 0 || hashed > len(want.Blocks) {
		t.Fatalf("%s: Resign reports %d hashed blocks of %d", label, hashed, len(want.Blocks))
	}
	return hashed
}

// TestDifferentialResign holds Resign to Sign, field for field, over
// deltas Compute produces for every edit family the live path sees.
func TestDifferentialResign(t *testing.T) {
	r := deltaRand(0x5161)
	kinds := map[string]int{}
	for iter := 0; iter < 1100; iter++ {
		c := resignDraw(&r, iter)
		kinds[c.kind]++
		old := Sign(c.basis, c.bs)
		d := Compute(old, c.target)
		hashed := requireResignEqualsSign(t, fmt.Sprintf("iter %d, %s", iter, c.kind), old, d, c.target)
		if c.kind == "all copy" && hashed != 0 {
			t.Fatalf("iter %d: unchanged file re-hashed %d blocks", iter, hashed)
		}
		if c.kind == "all literal" && hashed != (len(c.target)+c.bs-1)/c.bs {
			t.Fatalf("iter %d: all-literal target hashed %d blocks", iter, hashed)
		}

		// A delta cut at another block size shares nothing with old's
		// blocks: the fallback must still produce Sign's answer.
		if iter%5 == 0 {
			other := Compute(Sign(c.basis, c.bs+1), c.target)
			requireResignEqualsSign(t, fmt.Sprintf("iter %d, %s, block-size mismatch", iter, c.kind), old, other, c.target)
		}
	}
	if len(kinds) != 11 {
		t.Fatalf("harness drew %d edit families, want 11: %v", len(kinds), kinds)
	}
}

// TestDifferentialResignHandBuiltDeltas covers op sequences Compute
// never emits but the wire can carry: copies and runs in any order,
// repeated, adjacent runs that could have been one, and the basis's
// short final block landing mid-file — alone or ending a multi-block
// run, aligned or not — where its sums must not be reused.
func TestDifferentialResignHandBuiltDeltas(t *testing.T) {
	r := deltaRand(0xD1FF)
	for iter := 0; iter < 400; iter++ {
		bs := 1 + r.intn(64)
		basis := r.bytes(1 + r.intn(12*bs))
		old := Sign(basis, bs)
		nb := len(old.Blocks)
		d := Delta{BlockSize: bs}
		for k := 0; k < r.intn(16); k++ {
			switch r.intn(6) {
			case 0:
				d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: r.bytes(1 + r.intn(2*bs))})
			case 1: // block-multiple literal: later copies stay aligned
				d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: r.bytes(bs)})
			case 2: // the final (possibly short) block, wherever it lands
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: nb - 1, Count: 1})
			case 3: // a run ending on the final (possibly short) block
				idx := r.intn(nb)
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: idx, Count: nb - idx})
			case 4: // any run
				idx := r.intn(nb)
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: idx, Count: 1 + r.intn(nb-idx)})
			default:
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: r.intn(nb), Count: 1})
			}
		}
		for _, op := range d.Ops {
			if op.Kind != OpCopy {
				d.TargetSize += int64(len(op.Data))
				continue
			}
			for _, blk := range old.Blocks[op.Index : op.Index+op.Count] {
				d.TargetSize += int64(blk.Size)
			}
		}
		target, err := Apply(basis, d)
		if err != nil {
			t.Fatalf("iter %d: Apply: %v", iter, err)
		}
		requireResignEqualsSign(t, fmt.Sprintf("iter %d", iter), old, d, target)
	}
}

// TestResignReusesAlignedCopies pins the O(edit) property itself: k
// dirty blocks in an n-block file cost k block hashes, a block-multiple
// insert costs only the inserted blocks, and a sub-block insert — which
// misaligns everything after it — costs the shifted suffix.
func TestResignReusesAlignedCopies(t *testing.T) {
	const bs, nBlocks = 256, 64
	r := deltaRand(99)
	basis := r.bytes(bs*nBlocks + 100) // short final block
	old := Sign(basis, bs)

	edited := append([]byte(nil), basis...)
	for _, blk := range []int{3, 17, 40} {
		edited[blk*bs+5] ^= 0xFF
	}
	if got := requireResignEqualsSign(t, "3 dirty blocks", old, Compute(old, edited), edited); got != 3 {
		t.Fatalf("3 dirty blocks hashed %d blocks", got)
	}

	ins := r.bytes(2 * bs)
	shifted := append(append(append([]byte(nil), basis[:10*bs]...), ins...), basis[10*bs:]...)
	if got := requireResignEqualsSign(t, "aligned insert", old, Compute(old, shifted), shifted); got != 2 {
		t.Fatalf("2-block aligned insert hashed %d blocks", got)
	}

	skewed := append(append(append([]byte(nil), basis[:10*bs]...), 0x42), basis[10*bs:]...)
	if got := requireResignEqualsSign(t, "1-byte insert", old, Compute(old, skewed), skewed); got != nBlocks+1-10 {
		t.Fatalf("1-byte insert at block 10 hashed %d blocks, want the %d-block suffix", got, nBlocks+1-10)
	}
}

// TestResignFallsBackOnInconsistentInput: a delta that does not
// describe target — wrong declared size, a copy outside the old
// signature, ops that stop short — must cost a full Sign, never a
// wrong signature or a panic.
func TestResignFallsBackOnInconsistentInput(t *testing.T) {
	r := deltaRand(5)
	basis := r.bytes(1000)
	old := Sign(basis, 100)
	target := append([]byte(nil), basis...)
	good := Compute(old, target)
	if len(good.Ops) != 1 || good.Ops[0].Count != 10 {
		t.Fatalf("unchanged 10-block file gave %d ops, want one 10-block run", len(good.Ops))
	}

	wrongSize := good
	wrongSize.TargetSize++
	copyOp := func(idx, count int) Op { return Op{Kind: OpCopy, Index: idx, Count: count} }
	cases := map[string][]Op{
		"copy outside":  {copyOp(10, 1), copyOp(1, 9)},
		"run past end":  {copyOp(0, 9), copyOp(9, 2)},
		"zero count":    {copyOp(0, 0), copyOp(0, 10)},
		"short":         {copyOp(0, 5)},
		"long":          {copyOp(0, 10), copyOp(0, 1)},
		"negative copy": {copyOp(-1, 1), copyOp(0, 10)},
	}
	ds := map[string]Delta{"wrong size": wrongSize}
	for name, ops := range cases {
		ds[name] = Delta{BlockSize: 100, TargetSize: 1000, Ops: ops}
	}
	for name, d := range ds {
		if got := requireResignEqualsSign(t, name, old, d, target); got != 10 {
			t.Fatalf("%s: hashed %d blocks, want a full re-sign of 10", name, got)
		}
	}
}
