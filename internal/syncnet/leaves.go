package syncnet

import (
	"time"

	"cloudsync/internal/delta"
	"cloudsync/internal/protocol"
)

// The content store. Each content is stored once, as one value: its
// bytes as immutable leaves on the protocol.LeafSize grid, and, for a
// content of more than one leaf, their sums when known. A full upload's
// leaves are sub-slices of the buffer it arrived in. A delta's result
// shares every leaf of its basis that the delta copied in place — its
// bytes and its sum — and builds and hashes only the others: for eight
// small edits to a 4 MiB file, eight 16 KiB leaves instead of a copy of
// the file (syncd_delta_built_bytes_total,
// syncd_content_hash_bytes_total). The sums are derived data — never
// logged, not part of state — at 32 bytes per 16 KiB leaf, 0.2 % of the
// content. Content replayed at open has none: the first delta against
// it still shares the leaves it did not touch, but hashes its whole
// result, whose sums are then kept. A shared leaf keeps the whole array
// it was cut from alive (an upload's buffer, a delta's built leaves), so
// dropping a content frees its memory only once no content still shares
// a leaf of the same array.

// blob is one stored content. Its leaves never change once stored;
// its sums are set at most once more, under s.mu, when a content stored
// without them is produced again with them (putLocked), so code that
// reads the sums outside s.mu copies the blob under it (onDelta).
type blob struct {
	leaves [][]byte           // the bytes, cut as protocol.Leaves cuts them
	sums   []protocol.LeafSum // nil: one leaf, or not known
	// one holds the leaf of a content of at most one leaf — every small
	// file — so that storing one is a single allocation.
	one [1][]byte
}

// newBlob cuts raw into leaves where it lies, copying nothing.
func newBlob(raw []byte) *blob {
	if len(raw) > protocol.LeafSize {
		return &blob{leaves: protocol.Leaves(raw)}
	}
	c := &blob{one: [1][]byte{raw[:len(raw):len(raw)]}}
	c.leaves = c.one[:min(len(raw), 1)]
	return c
}

// size is the content's length in bytes.
func (c *blob) size() int {
	n := len(c.leaves)
	if n == 0 {
		return 0
	}
	return (n-1)*protocol.LeafSize + len(c.leaves[n-1])
}

// bytes returns a copy of the content, in one piece.
func (c *blob) bytes() []byte {
	b := make([]byte, 0, c.size())
	for _, l := range c.leaves {
		b = append(b, l...)
	}
	return b
}

// readAt fills dst with the content's bytes from offset off on.
func (c *blob) readAt(dst []byte, off int) {
	const L = protocol.LeafSize
	for len(dst) > 0 {
		n := copy(dst, c.leaves[off/L][off%L:])
		dst, off = dst[n:], off+n
	}
}

// applyDelta returns the result of applying d to basis, and how many of
// its bytes it built; its error is d.Validate's, and nothing is
// allocated before Validate passes. A leaf of the result every byte of
// which d copied from the same offset of basis, over the same range in
// both, is basis's own leaf: its bytes are shared and its sum, when
// basis has one, carried. Every other leaf is built, all of them in one
// allocation, and its sum left zero for identify to hash.
func applyDelta(basis *blob, d delta.Delta) (c *blob, built int, err error) {
	const L = protocol.LeafSize
	basisLen := basis.size()
	size, err := d.Validate(basisLen)
	if err != nil {
		return nil, 0, err
	}
	c = &blob{leaves: make([][]byte, (size+L-1)/L)}
	if n := protocol.NumLeaves(size); n > 0 {
		c.sums = make([]protocol.LeafSum, n)
	}
	// A leaf is a candidate when basis has it, at its full length; a
	// nil leaf is one to build.
	for i := range c.leaves {
		if end := (i + 1) * L; i < len(basis.leaves) && min(end, size) == min(end, basisLen) {
			c.leaves[i] = basis.leaves[i]
		}
	}
	// Every op but a copy in place touches the leaves it lands in.
	pos := 0
	for _, op := range d.Ops {
		from, n := opSpan(op, d.BlockSize, basisLen)
		if n > 0 && (op.Kind != delta.OpCopy || from != pos) {
			clear(c.leaves[pos/L : (pos+n+L-1)/L])
		}
		pos += n
	}
	for i, l := range c.leaves {
		if l == nil {
			built += min((i+1)*L, size) - i*L
		} else if c.sums != nil && basis.sums != nil {
			c.sums[i] = basis.sums[i]
		}
	}
	// Fill the leaves to build in order, walking the ops alongside: op k
	// makes the result's bytes from pos on.
	buf := make([]byte, built)
	k := 0
	pos = 0
	for i, l := range c.leaves {
		if l != nil {
			continue
		}
		lo, hi := i*L, min((i+1)*L, size)
		l, buf = buf[:hi-lo:hi-lo], buf[hi-lo:]
		c.leaves[i] = l
		for at := lo; at < hi; {
			op := d.Ops[k]
			from, n := opSpan(op, d.BlockSize, basisLen)
			if pos+n <= at {
				k, pos = k+1, pos+n
				continue
			}
			dst := l[at-lo : min(hi, pos+n)-lo]
			if op.Kind == delta.OpCopy {
				basis.readAt(dst, from+at-pos)
			} else {
				copy(dst, op.Data[at-pos:])
			}
			at += len(dst)
		}
	}
	return c, built, nil
}

// opSpan returns where in a basisLen-byte basis a valid op of a delta
// at block size bs copies from (0 for a literal), and how many bytes of
// the result it makes.
func opSpan(op delta.Op, bs, basisLen int) (from, n int) {
	if op.Kind != delta.OpCopy {
		return 0, len(op.Data)
	}
	from = op.Index * bs
	return from, min(from+op.Count*bs, basisLen) - from
}

// identify returns c's Fingerprint, filling in the zero entries of its
// leaf sums (protocol.SumLeaves), timed into syncd_content_hash_us when
// the server is metered; the bytes it hashed count into
// syncd_content_hash_bytes_total. c is not stored yet.
func (s *Server) identify(c *blob) protocol.Fingerprint {
	var t0 time.Time
	if s.om.contentHashUS != nil {
		t0 = time.Now()
	}
	if n := protocol.NumLeaves(c.size()); n > 0 && c.sums == nil {
		c.sums = make([]protocol.LeafSum, n)
	}
	fp, hashed := protocol.SumLeaves(c.leaves, c.sums)
	s.om.contentHashBytes.Add(int64(hashed))
	if !t0.IsZero() {
		s.om.contentHashUS.Observe(time.Since(t0).Microseconds())
	}
	return fp
}
