// Package delta implements the rsync algorithm — the incremental data
// sync (IDS) mechanism the paper identifies in Dropbox and SugarSync PC
// clients (§ 4.3).
//
// The receiver (cloud) holds a basis file and publishes a Signature:
// per-block weak rolling checksums and strong MD5 fingerprints. The
// sender (client) scans its new file with a rolling window, emitting
// COPY references for blocks the receiver already has and LITERAL bytes
// for everything else. Applying the delta to the basis reconstructs the
// new file exactly. WireSize reports what transmitting the delta costs,
// which is the quantity TUE cares about.
package delta

import (
	"crypto/md5"
	"fmt"
)

// DefaultBlockSize is the sync granularity used when callers do not
// choose one. The paper estimates Dropbox's granularity at ≈ 10 KB and
// notes rsync's recommended defaults of 700 B–16 KB; 8 KB sits in that
// band.
const DefaultBlockSize = 8 << 10

// BlockSig is the signature of one basis block.
type BlockSig struct {
	// Index is the block's position in the basis (offset = Index ×
	// BlockSize).
	Index int
	// Size is the block length; only the final block may be short.
	Size int
	// Weak is the rolling Adler-style checksum.
	Weak uint32
	// Strong is the MD5 fingerprint.
	Strong [md5.Size]byte
}

// Signature describes a basis file for delta computation.
type Signature struct {
	BlockSize int
	FileSize  int64
	Blocks    []BlockSig
}

// Sign computes the signature of basis data with the given block size.
func Sign(data []byte, blockSize int) Signature {
	if blockSize <= 0 {
		panic(fmt.Sprintf("delta: invalid block size %d", blockSize))
	}
	sig := Signature{BlockSize: blockSize, FileSize: int64(len(data))}
	for off, idx := 0, 0; off < len(data); off, idx = off+blockSize, idx+1 {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		sig.Blocks = append(sig.Blocks, signBlock(data[off:end], idx))
	}
	return sig
}

func signBlock(blk []byte, idx int) BlockSig {
	return BlockSig{Index: idx, Size: len(blk), Weak: weakSum(blk), Strong: md5.Sum(blk)}
}

// Resign derives Sign(target, old.BlockSize) from old — the signature
// of the basis — and the delta d that produced target from that basis,
// hashing only the blocks the delta actually changed. It also reports
// how many blocks it had to hash.
//
// Walking d's ops while tracking the output offset, a copy op's sums
// are reused under the new index when the copied bytes are exactly one
// target block: the copy lands at a multiple of the block size and is
// as long as the target block there. A full basis block qualifies
// anywhere it lands aligned (the target block there is then full too,
// or the delta would overrun); the basis's final short block qualifies
// only as the target's final block — mid-file it covers part of a
// block, and both sums depend on the window's length as well as its
// bytes. Every other target block is hashed from target.
//
// The result equals Sign(target, old.BlockSize) field for field. When
// the inputs are not the triple described above — another block size,
// a copy outside old, sizes that do not add up — nothing can be reused
// safely and Resign is Sign.
func Resign(old Signature, d Delta, target []byte) (sig Signature, hashed int) {
	bs := old.BlockSize
	if bs <= 0 {
		panic(fmt.Sprintf("delta: signature with invalid block size %d", bs))
	}
	n := (len(target) + bs - 1) / bs
	signAll := func() (Signature, int) { return Sign(target, bs), n }
	if d.BlockSize != bs || d.TargetSize != int64(len(target)) {
		return signAll()
	}
	sig = Signature{BlockSize: bs, FileSize: int64(len(target))}
	if n == 0 {
		return sig, 0
	}
	// A zero Size marks a block not yet filled: real blocks are never
	// empty.
	sig.Blocks = make([]BlockSig, n)
	pos := 0
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			pos += len(op.Data)
			continue
		}
		if op.Kind != OpCopy || op.Index < 0 || op.Index >= len(old.Blocks) {
			return signAll()
		}
		blk := old.Blocks[op.Index]
		if blk.Size <= 0 || blk.Size > bs {
			return signAll()
		}
		if pos%bs == 0 && pos < len(target) && blk.Size == min(bs, len(target)-pos) {
			blk.Index = pos / bs
			sig.Blocks[blk.Index] = blk
		}
		pos += blk.Size
	}
	if pos != len(target) {
		return signAll()
	}
	for idx := range sig.Blocks {
		if sig.Blocks[idx].Size == 0 {
			off := idx * bs
			sig.Blocks[idx] = signBlock(target[off:min(off+bs, len(target))], idx)
			hashed++
		}
	}
	return sig, hashed
}

// WireSize reports the cost of transmitting the signature: 4 weak + 16
// strong bytes per block plus a 12-byte header. In the rsync protocol
// the receiver sends this to the sender before the delta flows back.
func (s Signature) WireSize() int {
	return 12 + len(s.Blocks)*(4+md5.Size)
}

// weakSum is the Adler-32-style rolling checksum rsync uses: two 16-bit
// sums packed into 32 bits. The loop is the sequential recurrence
// a += x; b += a (identical mod 2^16 to weighting each byte by its
// distance from the window end — weakSumRef), unrolled four bytes per
// iteration; uint32 overflow is harmless because only the low 16 bits
// of each accumulator survive. Equivalence to weakSumRef is pinned by
// the differential harness.
func weakSum(data []byte) uint32 {
	var a, b uint32
	i := 0
	for ; i+4 <= len(data); i += 4 {
		x0 := uint32(data[i])
		x1 := uint32(data[i+1])
		x2 := uint32(data[i+2])
		x3 := uint32(data[i+3])
		b += 4*a + 4*x0 + 3*x1 + 2*x2 + x3
		a += x0 + x1 + x2 + x3
	}
	for ; i < len(data); i++ {
		a += uint32(data[i])
		b += a
	}
	return (a & 0xffff) | (b << 16)
}

// roll slides the checksum one byte: out leaves the window, in enters,
// n is the window length.
func roll(sum uint32, out, in byte, n int) uint32 {
	a := sum & 0xffff
	b := sum >> 16
	a = (a - uint32(out) + uint32(in)) & 0xffff
	b = (b - uint32(n)*uint32(out) + a) & 0xffff
	return a | (b << 16)
}

// OpKind distinguishes delta operations.
type OpKind uint8

const (
	// OpCopy references a block of the basis by index.
	OpCopy OpKind = iota
	// OpLiteral carries raw bytes.
	OpLiteral
)

// Op is one delta instruction.
type Op struct {
	Kind OpKind
	// Index is the basis block referenced by a copy op.
	Index int
	// Data is the payload of a literal op.
	Data []byte
}

// Delta is an ordered list of instructions that transforms the basis
// into the target.
type Delta struct {
	BlockSize  int
	TargetSize int64
	Ops        []Op
}

// LiteralBytes reports the total literal payload in the delta.
func (d Delta) LiteralBytes() int {
	n := 0
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			n += len(op.Data)
		}
	}
	return n
}

// CopiedBlocks reports how many basis blocks the delta references.
func (d Delta) CopiedBlocks() int {
	n := 0
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			n++
		}
	}
	return n
}

// WireSize reports the transmission cost of the delta: literal bytes
// plus a 4-byte header per literal run, plus 8 bytes per run of
// consecutive copy ops (rsync collapses adjacent block references).
func (d Delta) WireSize() int {
	size := 0
	i := 0
	for i < len(d.Ops) {
		op := d.Ops[i]
		if op.Kind == OpLiteral {
			size += 4 + len(op.Data)
			i++
			continue
		}
		// Collapse a run of consecutive copies.
		j := i
		for j+1 < len(d.Ops) && d.Ops[j+1].Kind == OpCopy &&
			d.Ops[j+1].Index == d.Ops[j].Index+1 {
			j++
		}
		size += 8
		i = j + 1
	}
	return size
}

// weakTable is an open-addressed hash table over the signature's
// full-size blocks, keyed by weak checksum. Equal weak sums chain
// through next in ascending block order — the same candidate order the
// map-of-slices form produced, so the first strong match (and with it
// every emitted copy index) is unchanged. Two flat int32 slices replace
// the map[uint32][]BlockSig and its per-key slice churn.
type weakTable struct {
	mask   uint32
	slots  []int32 // weak-sum slot → first block index, -1 when empty
	next   []int32 // block index → next block with the same weak sum
	blocks []BlockSig
	count  int
}

func buildWeakTable(blocks []BlockSig, bs int) (wt weakTable, partial *BlockSig) {
	size := uint32(4)
	for int(size) < 2*len(blocks) {
		size *= 2
	}
	wt.mask = size - 1
	wt.slots = make([]int32, size)
	for i := range wt.slots {
		wt.slots[i] = -1
	}
	wt.next = make([]int32, len(blocks))
	wt.blocks = blocks
	// Insert in reverse so each chain lists blocks in ascending index
	// order when walked front-to-back.
	for i := len(blocks) - 1; i >= 0; i-- {
		if blocks[i].Size != bs {
			partial = &blocks[i]
			continue
		}
		slot := wt.findSlot(blocks[i].Weak)
		wt.next[i] = wt.slots[slot]
		wt.slots[slot] = int32(i)
		wt.count++
	}
	return wt, partial
}

// findSlot linearly probes to the slot owning weak: either its existing
// chain head or the first empty slot. The table is at most half full,
// so probing terminates.
func (wt *weakTable) findSlot(weak uint32) uint32 {
	// Multiplicative scatter (Knuth's 2^32/φ) — weak sums are two packed
	// 16-bit sums and cluster badly if used directly.
	slot := (weak * 2654435761) & wt.mask
	for {
		head := wt.slots[slot]
		if head < 0 || wt.blocks[head].Weak == weak {
			return slot
		}
		slot = (slot + 1) & wt.mask
	}
}

// lookup returns the index of the first chained block whose weak sum
// matches, or -1.
func (wt *weakTable) lookup(weak uint32) int32 {
	if wt.count == 0 {
		return -1
	}
	return wt.slots[wt.findSlot(weak)]
}

// tagBits sizes the weak-sum tag bitmap: 2^16 bits = 8 KB, small
// enough to live in L1 for the whole scan.
const tagBits = 16

// tagOf folds a 32-bit weak sum to a 16-bit bitmap tag. XORing the two
// packed 16-bit sums keeps entropy from both halves (the low half
// alone clusters badly on short windows).
func tagOf(w uint32) uint32 { return (w ^ (w >> tagBits)) & (1<<tagBits - 1) }

// Compute builds the delta that turns the signed basis into target. The
// scan matches weak checksums first and confirms with the strong hash,
// exactly as rsync does; on hash collision the strong check rejects the
// block and the byte goes out as a literal.
//
// Throughput engineering (outputs byte-identical to computeRef, pinned
// by the differential harness):
//
//   - rsync's tag bitmap: every basis block sets one bit of a 2^16-bit
//     map keyed by its folded weak sum. The per-byte scan tests one bit
//     and only probes the weak table on a tag hit, so literal-heavy
//     regions pay a single L1 load per byte instead of a hash-scatter
//     and probe chain.
//   - the rolling update is inlined in the miss loop (the hot path on
//     non-matching regions).
//   - literal bytes are gathered into one exactly-sized arena after the
//     scan instead of one allocation+copy per literal op; ops alias the
//     target only transiently during the scan.
func Compute(sig Signature, target []byte) Delta {
	bs := sig.BlockSize
	if bs <= 0 {
		panic(fmt.Sprintf("delta: signature with invalid block size %d", bs))
	}
	d := Delta{BlockSize: bs, TargetSize: int64(len(target))}

	// Index full-size blocks by weak sum; keep the trailing partial
	// block (if any) aside for tail matching.
	wt, partial := buildWeakTable(sig.Blocks, bs)

	// Scan-time literal ops alias target; sealLiterals copies them out.
	emitLiteral := func(data []byte) {
		if len(data) == 0 {
			return
		}
		d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: data})
	}

	litStart := 0
	i := 0
	if len(target) >= bs && wt.count > 0 {
		// Build the tag bitmap over the indexed (full-size) blocks. A set
		// bit is necessary, not sufficient, for a weak-table hit, so
		// gating lookups on it never changes a match decision.
		var bitmap [1 << tagBits / 64]uint64
		for b := range wt.blocks {
			if wt.blocks[b].Size == bs {
				t := tagOf(wt.blocks[b].Weak)
				bitmap[t>>6] |= 1 << (t & 63)
			}
		}

		w := weakSum(target[:bs])
		for {
			// Fast path: slide the window until the tag bitmap says this
			// position could match. The accumulators stay unpacked across
			// iterations and unmasked — every update is an add/sub, so the
			// low 16 bits (all the tag and the packed sum ever read) are
			// exact mod 2^32 — leaving one add chain, one xor/mask fold,
			// and one L1 bit test per byte. tagOf(w) on the packed sum is
			// (a^b)&0xffff: w>>16 is b, so the fold xors a into b's low half.
			a := w & 0xffff
			b := w >> 16
			t := (a ^ b) & (1<<tagBits - 1)
			limit := len(target) - bs
			for bitmap[t>>6]&(1<<(t&63)) == 0 {
				if i >= limit {
					goto tail
				}
				out, in := uint32(target[i]), uint32(target[i+bs])
				a += in - out
				b += a - uint32(bs)*out
				i++
				t = (a ^ b) & (1<<tagBits - 1)
			}
			w = (a & 0xffff) | (b & 0xffff << 16)
			matched := -1
			if cand := wt.lookup(w); cand >= 0 {
				strong := md5.Sum(target[i : i+bs])
				for ; cand >= 0; cand = wt.next[cand] {
					if wt.blocks[cand].Strong == strong {
						matched = wt.blocks[cand].Index
						break
					}
				}
			}
			if matched >= 0 {
				emitLiteral(target[litStart:i])
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: matched})
				i += bs
				litStart = i
				if i+bs > len(target) {
					break
				}
				w = weakSum(target[i : i+bs])
				continue
			}
			if i+bs >= len(target) {
				break
			}
			w = roll(w, target[i], target[i+bs], bs)
			i++
		}
	}

tail:
	// Tail: the basis's final partial block can match the target's tail.
	rest := target[litStart:]
	if partial != nil && len(rest) >= partial.Size && partial.Size > 0 {
		tail := rest[len(rest)-partial.Size:]
		if weakSum(tail) == partial.Weak && md5.Sum(tail) == partial.Strong {
			emitLiteral(rest[:len(rest)-partial.Size])
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: partial.Index})
			sealLiterals(&d)
			return d
		}
	}
	emitLiteral(rest)
	sealLiterals(&d)
	return d
}

// sealLiterals copies every literal op's bytes — which alias the
// caller's target during the scan — into one exactly-sized arena, so
// the returned delta owns its memory with a single allocation no
// matter how many literal runs the scan produced.
func sealLiterals(d *Delta) {
	total := 0
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			total += len(op.Data)
		}
	}
	if total == 0 {
		return
	}
	arena := make([]byte, 0, total)
	for idx := range d.Ops {
		if d.Ops[idx].Kind != OpLiteral {
			continue
		}
		off := len(arena)
		arena = append(arena, d.Ops[idx].Data...)
		d.Ops[idx].Data = arena[off:len(arena):len(arena)]
	}
}

// Apply reconstructs the target from the basis and a delta. It verifies
// block references and the final size, returning an error on any
// inconsistency.
//
// The output is a single exactly-sized allocation — TargetSize is known
// up front — written with bounds-checked copies: an op that would
// overrun the declared size fails before writing rather than growing
// the buffer (the old bytes.Buffer path paid an alloc plus at least one
// grow per apply and only caught oversize deltas at the end).
func Apply(basis []byte, d Delta) ([]byte, error) {
	if d.BlockSize <= 0 {
		return nil, fmt.Errorf("delta: apply with invalid block size %d", d.BlockSize)
	}
	if d.TargetSize < 0 {
		return nil, fmt.Errorf("delta: apply with negative target size %d", d.TargetSize)
	}
	out := make([]byte, d.TargetSize)
	pos := 0
	for i, op := range d.Ops {
		switch op.Kind {
		case OpLiteral:
			if pos+len(op.Data) > len(out) {
				return nil, fmt.Errorf("delta: op %d overruns target size %d", i, d.TargetSize)
			}
			pos += copy(out[pos:], op.Data)
		case OpCopy:
			off := op.Index * d.BlockSize
			if op.Index < 0 || off >= len(basis) {
				return nil, fmt.Errorf("delta: op %d references block %d outside basis (%d bytes)",
					i, op.Index, len(basis))
			}
			end := off + d.BlockSize
			if end > len(basis) {
				end = len(basis)
			}
			if pos+(end-off) > len(out) {
				return nil, fmt.Errorf("delta: op %d overruns target size %d", i, d.TargetSize)
			}
			pos += copy(out[pos:], basis[off:end])
		default:
			return nil, fmt.Errorf("delta: op %d has unknown kind %d", i, op.Kind)
		}
	}
	if int64(pos) != d.TargetSize {
		return nil, fmt.Errorf("delta: reconstructed %d bytes, want %d", pos, d.TargetSize)
	}
	return out, nil
}
