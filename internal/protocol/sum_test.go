package protocol

import (
	"math/rand/v2"
	"testing"

	"cloudsync/internal/kerneltest"
)

// TestSumLeavesReusesWhatItIsGiven: over files around the leaf
// boundaries, SumLeaves with no known leaf hashes the whole file to
// Sum's answer and fills in every leaf; told all leaves but one, it
// reads that one leaf and reaches the same answer.
func TestSumLeavesReusesWhatItIsGiven(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, size := range []int{0, 1, LeafSize - 1, LeafSize, LeafSize + 1, 2 * LeafSize, 5*LeafSize + 7} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		want := Sum(data)
		leaves := make([]LeafSum, NumLeaves(size))
		if fp, hashed := SumLeaves(data, leaves); fp != want || hashed != size {
			t.Fatalf("%d B from no leaves: %x after %d B, want %x after %d", size, fp, hashed, want, size)
		}
		for i := range leaves {
			if leaves[i] == (LeafSum{}) {
				t.Fatalf("%d B: leaf %d left unfilled", size, i)
			}
			known := append([]LeafSum(nil), leaves...)
			known[i] = LeafSum{}
			leaf := min((i+1)*LeafSize, size) - i*LeafSize
			if fp, hashed := SumLeaves(data, known); fp != want || hashed != leaf || known[i] != leaves[i] {
				t.Fatalf("%d B knowing all but leaf %d: %x after %d B, want %x after %d", size, i, fp, hashed, want, leaf)
			}
		}
	}
}

// TestSumLeavesRefusesMisfitLeaves: a leaf list of the wrong length is
// a caller's bug, not a different file.
func TestSumLeavesRefusesMisfitLeaves(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SumLeaves took 1 leaf sum for a 3-leaf file")
		}
	}()
	SumLeaves(make([]byte, 2*LeafSize+1), make([]LeafSum, 1))
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
