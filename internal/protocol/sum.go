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
	fp, _ := SumLeaves(data, nil)
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

// SumLeaves is Sum that takes and keeps leaf sums: the incremental form
// of a file's identity. leaves is nil, or holds NumLeaves(len(data))
// entries. A non-zero entry is taken as its leaf's sum without reading
// the leaf; every zero entry is hashed from data and filled in. hashed
// is the number of bytes of data read, so a caller that knows every
// leaf but one pays for one leaf. A non-zero entry that is not its
// leaf's sum yields a wrong Fingerprint.
func SumLeaves(data []byte, leaves []LeafSum) (fp Fingerprint, hashed int) {
	n := NumLeaves(len(data))
	if leaves != nil && len(leaves) != n {
		panic(fmt.Sprintf("protocol: %d leaf sums for %d bytes, want %d", len(leaves), len(data), n))
	}
	st := sumStates.Get().(*sumState)
	defer sumStates.Put(st)
	if n == 0 {
		st.leafSum(data)
		return Fingerprint(st.sum[:FingerprintSize]), len(data)
	}
	st.root.Reset()
	st.root.Write(rootPrefix)
	for i := range n {
		if leaves == nil || leaves[i] == (LeafSum{}) {
			leaf := data[i*LeafSize : min((i+1)*LeafSize, len(data))]
			st.leafSum(leaf)
			hashed += len(leaf)
			if leaves != nil {
				leaves[i] = st.sum
			}
		} else {
			st.sum = leaves[i]
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
