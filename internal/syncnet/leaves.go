package syncnet

import (
	"time"

	"cloudsync/internal/delta"
	"cloudsync/internal/protocol"
)

// The leaf cache. A file of more than one leaf is identified by the hash
// of its leaf sums (protocol.Sum), and the server keeps each such
// content's leaf sums in Server.leafSums, beside the content store, so
// that a delta's result is identified by hashing only the leaves the
// delta touched: for eight small edits to a 4 MiB file, at most eight
// 16 KiB leaves instead of the file. The sums are derived data — never
// logged, not part of state — at 32 bytes per 16 KiB leaf, 0.2 % of the
// content. Content replayed at open has none: the first delta against
// it hashes its whole result, whose sums are then kept.

// newLeaves returns the zeroed leaf sums of a size-byte content, for
// identify to fill: nil when the content has one leaf.
func newLeaves(size int) []protocol.LeafSum {
	if n := protocol.NumLeaves(size); n > 0 {
		return make([]protocol.LeafSum, n)
	}
	return nil
}

// carryLeaves returns the leaf sums of the result of applying d to
// basis, whose leaf sums are old (nil: unknown), as far as d proves them
// without reading the result: a leaf every byte of which d copied from
// the same offset of basis, over the same range in both, keeps old's
// sum. Every other leaf is zero, for identify to hash. d must have
// applied to basis cleanly, giving size bytes.
func carryLeaves(old []protocol.LeafSum, basisLen int, d delta.Delta, size int) []protocol.LeafSum {
	const L = protocol.LeafSize
	leaves := newLeaves(size)
	for i := range min(len(leaves), len(old)) {
		if end := (i + 1) * L; min(end, size) == min(end, basisLen) {
			leaves[i] = old[i]
		}
	}
	pos := 0
	for _, op := range d.Ops {
		n, inPlace := len(op.Data), false
		if op.Kind == delta.OpCopy {
			off := op.Index * d.BlockSize
			n, inPlace = min(off+op.Count*d.BlockSize, basisLen)-off, off == pos
		}
		if !inPlace && n > 0 {
			clear(leaves[min(pos/L, len(leaves)):min((pos+n-1)/L+1, len(leaves))])
		}
		pos += n
	}
	return leaves
}

// identify returns raw's Fingerprint, filling in the zero entries of its
// leaf sums (protocol.SumLeaves), timed into syncd_content_hash_us when
// the server is metered; the bytes it hashed count into
// syncd_content_hash_bytes_total.
func (s *Server) identify(raw []byte, leaves []protocol.LeafSum) protocol.Fingerprint {
	var t0 time.Time
	if s.om.contentHashUS != nil {
		t0 = time.Now()
	}
	fp, hashed := protocol.SumLeaves(raw, leaves)
	s.om.contentHashBytes.Add(int64(hashed))
	if !t0.IsZero() {
		s.om.contentHashUS.Observe(time.Since(t0).Microseconds())
	}
	return fp
}
