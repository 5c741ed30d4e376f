package delta

// Differential harness: the optimized Compute (tag bitmap, inlined
// roll, literal arena) and weakSum (unrolled) against their retained
// references, op for op and byte for byte, across random bases, edit
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
			!bytes.Equal(a.Ops[i].Data, b.Ops[i].Data) {
			return false
		}
	}
	return true
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
		want := computeRef(sig, target)
		if !deltasEqual(got, want) {
			t.Fatalf("iter %d (bs=%d, len basis=%d target=%d): optimized delta diverged from reference\ngot  %d ops, %d literal\nwant %d ops, %d literal",
				iter, bs, len(basis), len(target),
				len(got.Ops), got.LiteralBytes(), len(want.Ops), want.LiteralBytes())
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
		if got, want := Compute(sig, target), computeRef(sig, target); !deltasEqual(got, want) {
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
// never emits but the wire can carry: copies in any order, repeated,
// and the basis's short final block landing mid-file — aligned or not —
// where its sums must not be reused.
func TestDifferentialResignHandBuiltDeltas(t *testing.T) {
	r := deltaRand(0xD1FF)
	for iter := 0; iter < 400; iter++ {
		bs := 1 + r.intn(64)
		basis := r.bytes(1 + r.intn(12*bs))
		old := Sign(basis, bs)
		d := Delta{BlockSize: bs}
		for k := 0; k < r.intn(16); k++ {
			switch r.intn(4) {
			case 0:
				d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: r.bytes(1 + r.intn(2*bs))})
			case 1: // block-multiple literal: later copies stay aligned
				d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: r.bytes(bs)})
			case 2: // the final (possibly short) block, wherever it lands
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: len(old.Blocks) - 1})
			default:
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: r.intn(len(old.Blocks))})
			}
		}
		for _, op := range d.Ops {
			if op.Kind == OpCopy {
				d.TargetSize += int64(old.Blocks[op.Index].Size)
			} else {
				d.TargetSize += int64(len(op.Data))
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

	wrongSize := good
	wrongSize.TargetSize++
	outside := Delta{BlockSize: 100, TargetSize: 1000, Ops: append([]Op{{Kind: OpCopy, Index: 10}}, good.Ops[1:]...)}
	short := Delta{BlockSize: 100, TargetSize: 1000, Ops: good.Ops[:5]}
	long := Delta{BlockSize: 100, TargetSize: 1000, Ops: append(append([]Op(nil), good.Ops...), Op{Kind: OpCopy, Index: 0})}
	for name, d := range map[string]Delta{"wrong size": wrongSize, "copy outside": outside, "short": short, "long": long} {
		if got := requireResignEqualsSign(t, name, old, d, target); got != 10 {
			t.Fatalf("%s: hashed %d blocks, want a full re-sign of 10", name, got)
		}
	}
}
