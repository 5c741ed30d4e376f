package protocol

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
)

// Fingerprint is a live file's identity, as Sum computes it. The
// simulator's dedup.Fingerprint has the same shape but holds an MD5, the
// hash of the paper's services.
type Fingerprint = [FingerprintSize]byte

// LeafSize is the grid a file's identity is hashed over: leaf i is bytes
// [i·LeafSize, (i+1)·LeafSize) of the file, the last leaf possibly short.
const LeafSize = 16 << 10

// LeafSum is one leaf's sum: the SHA-256 of a 0x00 byte and the leaf.
type LeafSum = [sha256.Size]byte

// The domain prefixes of RFC 6962: no leaf's input is a root's input.
var (
	leafPrefix = []byte{0x00}
	rootPrefix = []byte{0x01}
)

// Sum returns data's Fingerprint. A file of at most one leaf is
// identified by its leaf sum; a longer one by the SHA-256 of a 0x01 byte
// and its leaf sums in order. Either way the Fingerprint is the first
// FingerprintSize bytes of that hash, and a file of one leaf costs one
// pass of SHA-256, as a flat hash would.
func Sum(data []byte) Fingerprint {
	fp, _ := sumLeaves(len(data), func(i int) []byte { return data[i*LeafSize : min((i+1)*LeafSize, len(data))] }, nil)
	return fp
}

// NumLeaves is the number of leaf sums a size-byte file's identity is
// taken over: 0 for a file of at most one leaf, which has none apart
// from its identity.
func NumLeaves(size int) int {
	if size <= LeafSize {
		return 0
	}
	return (size + LeafSize - 1) / LeafSize
}

// Leaves cuts data on the leaf grid: every leaf a sub-slice of data,
// capped at its own end, none for empty data.
func Leaves(data []byte) [][]byte {
	leaves := make([][]byte, 0, (len(data)+LeafSize-1)/LeafSize)
	for off := 0; off < len(data); off += LeafSize {
		end := min(off+LeafSize, len(data))
		leaves = append(leaves, data[off:end:end])
	}
	return leaves
}

// SumLeaves is Sum of a file given as its leaves (as Leaves cuts it),
// taking and keeping leaf sums: the incremental form of a file's
// identity. sums is nil, or holds NumLeaves of the file's size entries.
// A non-zero entry is taken as its leaf's sum without reading the leaf;
// every zero entry is hashed from its leaf and filled in. hashed is the
// number of bytes read, so a caller that knows every leaf but one pays
// for one leaf. A non-zero entry that is not its leaf's sum yields a
// wrong Fingerprint; leaves off the grid are refused with a panic.
func SumLeaves(leaves [][]byte, sums []LeafSum) (fp Fingerprint, hashed int) {
	size := 0
	for i, l := range leaves {
		if len(l) == 0 || len(l) > LeafSize || len(l) < LeafSize && i < len(leaves)-1 {
			panic(fmt.Sprintf("protocol: leaf %d of %d holds %d bytes", i, len(leaves), len(l)))
		}
		size += len(l)
	}
	return sumLeaves(size, func(i int) []byte { return leaves[i] }, sums)
}

// sumLeaves is SumLeaves of the size-byte file whose leaf i is leaf(i).
func sumLeaves(size int, leaf func(i int) []byte, sums []LeafSum) (fp Fingerprint, hashed int) {
	n := NumLeaves(size)
	if sums != nil && len(sums) != n {
		panic(fmt.Sprintf("protocol: %d leaf sums for %d bytes, want %d", len(sums), size, n))
	}
	st := sumStates.Get().(*sumState)
	defer sumStates.Put(st)
	if n == 0 {
		var data []byte
		if size > 0 {
			data = leaf(0)
		}
		st.leafSum(data)
		return Fingerprint(st.sum[:FingerprintSize]), size
	}
	st.root.Reset()
	st.root.Write(rootPrefix)
	for i := range n {
		if sums == nil || sums[i] == (LeafSum{}) {
			l := leaf(i)
			st.leafSum(l)
			hashed += len(l)
			if sums != nil {
				sums[i] = st.sum
			}
		} else {
			st.sum = sums[i]
		}
		st.root.Write(st.sum[:])
	}
	st.root.Sum(st.sum[:0])
	return Fingerprint(st.sum[:FingerprintSize]), hashed
}

// sumState is one SumLeaves call's hashers, pooled: SHA-256 states live
// behind an interface, which would cost two allocations per file.
type sumState struct {
	leaf, root hash.Hash
	sum        LeafSum
}

var sumStates = sync.Pool{New: func() any {
	return &sumState{leaf: sha256.New(), root: sha256.New()}
}}

// leafSum sets st.sum to leaf's sum.
func (st *sumState) leafSum(leaf []byte) {
	st.leaf.Reset()
	st.leaf.Write(leafPrefix)
	st.leaf.Write(leaf)
	st.leaf.Sum(st.sum[:0])
}
