package protocol

import (
	"math/rand/v2"
	"testing"

	"cloudsync/internal/kerneltest"
)

// TestSumLeavesReusesWhatItIsGiven: over files around the leaf
// boundaries, SumLeaves with no known leaf hashes the whole file to
// Sum's answer and fills in every leaf, each entry the leaf's own sum
// (whose prefix is Sum of the leaf alone); told all leaves but one,
// SumLeaves reads that one leaf and reaches the same answer.
func TestSumLeavesReusesWhatItIsGiven(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, size := range []int{0, 1, LeafSize - 1, LeafSize, LeafSize + 1, 2 * LeafSize, 5*LeafSize + 7} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		want, cut := Sum(data), Leaves(data)
		leaves := make([]LeafSum, NumLeaves(size))
		if fp, hashed := SumLeaves(cut, leaves); fp != want || hashed != size {
			t.Fatalf("%d B from no leaves: %x after %d B, want %x after %d", size, fp, hashed, want, size)
		}
		for i := range leaves {
			if leaves[i] == (LeafSum{}) {
				t.Fatalf("%d B: leaf %d left unfilled", size, i)
			}
			if own := Sum(cut[i]); Fingerprint(leaves[i][:FingerprintSize]) != own {
				t.Fatalf("%d B: leaf %d kept as %x, want the leaf's own sum %x…", size, i, leaves[i], own)
			}
			known := append([]LeafSum(nil), leaves...)
			known[i] = LeafSum{}
			leaf := min((i+1)*LeafSize, size) - i*LeafSize
			if fp, hashed := SumLeaves(cut, known); fp != want || hashed != leaf || known[i] != leaves[i] {
				t.Fatalf("%d B knowing all but leaf %d: %x after %d B, want %x after %d", size, i, fp, hashed, want, leaf)
			}
		}
	}
}

// TestSumLeavesRefusesMisfitLeaves: a leaf-sum list of the wrong
// length, or a file cut off the leaf grid, is a caller's bug, not a
// different file.
func TestSumLeavesRefusesMisfitLeaves(t *testing.T) {
	refused := func(what string, leaves [][]byte, sums []LeafSum) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("SumLeaves took %s", what)
			}
		}()
		SumLeaves(leaves, sums)
	}
	refused("1 leaf sum for a 3-leaf file", Leaves(make([]byte, 2*LeafSize+1)), make([]LeafSum, 1))
	refused("a short leaf before the last", [][]byte{make([]byte, 1), make([]byte, LeafSize)}, nil)
	refused("an empty leaf", [][]byte{{}}, nil)
}

// TestSumAllocatesNothing: the hashers are pooled, so identity costs no
// garbage on either end of a sync.
func TestSumAllocatesNothing(t *testing.T) {
	if kerneltest.Race {
		t.Skip("the race detector drops pooled items")
	}
	small, large := make([]byte, 100), make([]byte, 4*LeafSize+1)
	if n := testing.AllocsPerRun(10, func() { Sum(small); Sum(large) }); n != 0 {
		t.Errorf("Sum allocates %.0f times per two files, want 0", n)
	}
	leaves := Leaves(large)
	if n := testing.AllocsPerRun(10, func() { SumLeaves(leaves, nil) }); n != 0 {
		t.Errorf("SumLeaves allocates %.0f times per file, want 0", n)
	}
}

// BenchmarkSum4MB is a large file's identity: 256 leaf hashes and a
// root over 8 KiB of leaf sums.
func BenchmarkSum4MB(b *testing.B) {
	data := make([]byte, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		Sum(data)
	}
}
