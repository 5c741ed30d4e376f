// Package delta implements the rsync algorithm — the incremental data
// sync (IDS) mechanism the paper identifies in Dropbox and SugarSync PC
// clients (§ 4.3).
//
// The receiver (cloud) holds a basis file and publishes a Signature:
// per-block weak rolling checksums and strong fingerprints, each the
// first 16 bytes of the block's SHA-256. The sender (client) scans its
// new file with a rolling window, emitting COPY references for blocks
// the receiver already has and LITERAL bytes for everything else.
// Applying the delta to the basis reconstructs the new file exactly.
// WireSize reports what transmitting the delta costs, which is the
// quantity TUE cares about.
//
// The block sum is a SHA-256 prefix rather than rsync's MD5 because Go's
// crypto/sha256 runs on the CPU's SHA extensions (x86 SHA-NI, ARMv8
// SHA2) where present, about twice MD5's speed there; without them it is
// slower than MD5. Live file identity (protocol.Sum) is SHA-256 too,
// taken over 16 KiB leaves; only the simulator's fingerprints stay MD5.
package delta

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
)

// DefaultBlockSize is the fixed sync granularity of the simulator's
// reference profile and the live client's inline-upload threshold. The
// paper estimates Dropbox's granularity at ≈ 10 KB and notes rsync's
// recommended defaults of 700 B–16 KB; 8 KB sits in that band. The live
// server picks a block per file instead (BlockSizeFor).
const DefaultBlockSize = 8 << 10

// Bounds of BlockSizeFor, and of the block size a peer may ask the live
// server to sign at: rsync clamps its √N rule to [700 B, 128 KiB];
// powers of two keep Resign's alignment arithmetic simple.
const (
	MinBlockSize = 512
	MaxBlockSize = 128 << 10
)

// BlockSizeFor is the block size a file of size bytes is signed at: the
// largest power of two not above √size, clamped to [512 B, 128 KiB] —
// rsync's rule. A delta sync pays 20 B of signature per block whenever
// the sender must fetch one, plus about one block of literals per dirty
// block; 20·size/B + edits·B is smallest at B ∝ √size. 64 KiB gets
// 512 B, 1 MiB gets 1 KiB, 4 MiB 2 KiB, 1 GiB 32 KiB.
func BlockSizeFor(size int64) int {
	if size <= 0 {
		return MinBlockSize
	}
	// 2^k ≤ √size ⇔ 2k ≤ ⌊log2 size⌋.
	bs := 1 << ((bits.Len64(uint64(size)) - 1) / 2)
	return min(max(bs, MinBlockSize), MaxBlockSize)
}

// BlockSig is the signature of one basis block.
type BlockSig struct {
	// Index is the block's position in the basis (offset = Index ×
	// BlockSize).
	Index int
	// Size is the block length; only the final block may be short.
	Size int
	// Weak is the rolling Adler-style checksum.
	Weak uint32
	// Strong is strongSum of the block: the first 16 bytes of its
	// SHA-256.
	Strong [strongSize]byte
}

// strongSize is the length of a block's strong sum on the wire.
const strongSize = 16

// strongSum is a block's strong fingerprint: its SHA-256 cut to 128
// bits, which guards a weak-sum hit at least as well as the MD5 rsync
// uses.
func strongSum(blk []byte) [strongSize]byte {
	h := sha256.Sum256(blk)
	return [strongSize]byte(h[:strongSize])
}

// Signature describes a basis file for delta computation.
type Signature struct {
	BlockSize int
	FileSize  int64
	Blocks    []BlockSig
}

// Sign computes the signature of basis data with the given block size.
func Sign(data []byte, blockSize int) Signature {
	return SignParts([][]byte{data}, blockSize)
}

// SignParts is Sign of the concatenation of parts, read where they lie:
// a block inside one part is signed in place, and only a block that
// straddles parts is gathered first, through one scratch buffer reused
// for every such block.
func SignParts(parts [][]byte, blockSize int) Signature {
	if blockSize <= 0 {
		panic(fmt.Sprintf("delta: invalid block size %d", blockSize))
	}
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	sig := Signature{BlockSize: blockSize, FileSize: int64(size)}
	if size > 0 { // an empty file keeps Blocks nil, as Decode gives it back
		sig.Blocks = make([]BlockSig, 0, (size-1)/blockSize+1)
	}
	var scratch, cur []byte // cur: the unread rest of the part in hand
	for off, idx := 0, 0; off < size; off, idx = off+blockSize, idx+1 {
		n := min(blockSize, size-off)
		for len(cur) == 0 {
			cur, parts = parts[0], parts[1:]
		}
		var blk []byte
		if len(cur) >= n {
			blk, cur = cur[:n], cur[n:]
		} else {
			if scratch == nil {
				scratch = make([]byte, 0, blockSize)
			}
			for blk = scratch[:0]; len(blk) < n; {
				for len(cur) == 0 {
					cur, parts = parts[0], parts[1:]
				}
				k := min(n-len(blk), len(cur))
				blk, cur = append(blk, cur[:k]...), cur[k:]
			}
		}
		sig.Blocks = append(sig.Blocks, signBlock(blk, idx))
	}
	return sig
}

func signBlock(blk []byte, idx int) BlockSig {
	return BlockSig{Index: idx, Size: len(blk), Weak: weakSum(blk), Strong: strongSum(blk)}
}

// Resign derives Sign(target, old.BlockSize) from old — the signature
// of the basis — and the delta d that produced target from that basis,
// hashing only the blocks the delta actually changed. It also reports
// how many blocks it had to hash.
//
// Walking d's ops block by block while tracking the output offset, a
// copied block's sums are reused under the new index when its bytes are
// exactly one target block: the block lands at a multiple of the block
// size and is as long as the target block there. A full basis block qualifies
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
		if op.Kind != OpCopy || op.Index < 0 || op.Count < 1 || op.Count > len(old.Blocks)-op.Index {
			return signAll()
		}
		for _, blk := range old.Blocks[op.Index : op.Index+op.Count] {
			if blk.Size <= 0 || blk.Size > bs {
				return signAll()
			}
			if pos%bs == 0 && pos < len(target) && blk.Size == min(bs, len(target)-pos) {
				blk.Index = pos / bs
				sig.Blocks[blk.Index] = blk
			}
			pos += blk.Size
		}
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
	return int(sigWireSize(int64(len(s.Blocks))))
}

// SignatureWireSize is the WireSize of the signature of a size-byte file
// at blockSize, known without signing it. It counts in int64, so a file
// past 2³¹ blocks does not overflow a 32-bit int.
func SignatureWireSize(size int64, blockSize int) int64 {
	return sigWireSize((size + int64(blockSize) - 1) / int64(blockSize))
}

func sigWireSize(blocks int64) int64 { return 12 + blocks*(4+strongSize) }

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
	// OpCopy references a run of consecutive basis blocks.
	OpCopy OpKind = iota
	// OpLiteral carries raw bytes.
	OpLiteral
)

// Op is one delta instruction.
type Op struct {
	Kind OpKind
	// Index is the first basis block a copy op references, and Count
	// (≥ 1) how many consecutive blocks from there it copies.
	Index, Count int
	// Data is the payload of a literal op.
	Data []byte
}

// appendCopy appends a copy of basis block idx to ops, extending the
// last op instead when it is a run that ends just before idx.
func appendCopy(ops []Op, idx int) []Op {
	if n := len(ops); n > 0 && ops[n-1].Kind == OpCopy && ops[n-1].Index+ops[n-1].Count == idx {
		ops[n-1].Count++
		return ops
	}
	return append(ops, Op{Kind: OpCopy, Index: idx, Count: 1})
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
			n += op.Count
		}
	}
	return n
}

// WireSize reports the transmission cost of the delta: literal bytes
// plus a 4-byte header per literal run, plus 8 bytes per maximal run of
// consecutive copied blocks (rsync collapses adjacent block references,
// however the ops split them).
func (d Delta) WireSize() int {
	size := 0
	for i, op := range d.Ops {
		if op.Kind == OpLiteral {
			size += 4 + len(op.Data)
			continue
		}
		if prev := i - 1; prev < 0 || d.Ops[prev].Kind != OpCopy ||
			d.Ops[prev].Index+d.Ops[prev].Count != op.Index {
			size += 8
		}
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

// firstStrong walks the chain from cand and returns the first block
// whose strong sum is strong, or -1.
func (wt *weakTable) firstStrong(cand int32, strong [strongSize]byte) int32 {
	for ; cand >= 0; cand = wt.next[cand] {
		if wt.blocks[cand].Strong == strong {
			return cand
		}
	}
	return -1
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
// block and the byte goes out as a literal. A match of the basis block
// after the one just copied extends that copy run, so an unchanged
// stretch costs one op however many blocks it spans.
//
// Throughput engineering (outputs byte-identical to computeRef with its
// adjacent copies merged, pinned by the differential harness):
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
//   - run extension: an unchanged stretch goes on with the basis block
//     after the one just copied, so the window there is hashed first.
//     When its strong sum is that block's, so is its weak sum (the
//     signature is Sign's), and the lookup under that sum decides as
//     the scan would without computing it. An unchanged block costs
//     one strongSum and one probe, and only a miss pays for weakSum —
//     about a fifth of Compute's time on a 4 MiB file at 512 B blocks.
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
			matched := int32(-1)
			if cand := wt.lookup(w); cand >= 0 {
				matched = wt.firstStrong(cand, strongSum(target[i:i+bs]))
			}
			if matched < 0 {
				if i+bs >= len(target) {
					break
				}
				w = roll(w, target[i], target[i+bs], bs)
				i++
				continue
			}
			for matched >= 0 {
				emitLiteral(target[litStart:i])
				d.Ops = appendCopy(d.Ops, wt.blocks[matched].Index)
				i += bs
				litStart = i
				if i+bs > len(target) {
					goto tail
				}
				// Run extension (see above): try the next basis block.
				next := matched + 1
				matched = -1
				if int(next) < len(wt.blocks) && wt.blocks[next].Size == bs {
					if strong := strongSum(target[i : i+bs]); strong == wt.blocks[next].Strong {
						matched = wt.firstStrong(wt.lookup(wt.blocks[next].Weak), strong)
					}
				}
			}
			w = weakSum(target[i : i+bs])
		}
	}

tail:
	// Tail: the basis's final partial block can match the target's tail.
	rest := target[litStart:]
	if partial != nil && len(rest) >= partial.Size && partial.Size > 0 {
		tail := rest[len(rest)-partial.Size:]
		if weakSum(tail) == partial.Weak && strongSum(tail) == partial.Strong {
			emitLiteral(rest[:len(rest)-partial.Size])
			d.Ops = appendCopy(d.Ops, partial.Index)
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

// Validate checks that d applies to a basis of basisLen bytes and
// returns the length of its result: a positive block size, every copy
// inside the basis, every op of a known kind, and the ops adding up to
// exactly TargetSize, which an int must hold. It reads only the ops and
// allocates nothing, so a TargetSize the ops do not add up to costs no
// memory (it arrives straight off the wire). It is all the checking
// Apply does; a caller that builds the result its own way calls it
// first.
func (d Delta) Validate(basisLen int) (int, error) {
	bs := d.BlockSize
	if bs <= 0 {
		return 0, fmt.Errorf("delta: apply with invalid block size %d", bs)
	}
	if d.TargetSize < 0 || d.TargetSize > math.MaxInt {
		return 0, fmt.Errorf("delta: apply with target size %d outside [0, %d]", d.TargetSize, math.MaxInt)
	}
	nBlocks := (basisLen + bs - 1) / bs
	var size int64
	for i, op := range d.Ops {
		switch op.Kind {
		case OpLiteral:
			size += int64(len(op.Data))
		case OpCopy:
			if op.Index < 0 || op.Count < 1 || op.Index >= nBlocks || op.Count > nBlocks-op.Index {
				return 0, fmt.Errorf("delta: op %d copies blocks %d+%d outside basis (%d blocks)",
					i, op.Index, op.Count, nBlocks)
			}
			off := op.Index * bs
			size += int64(min(off+op.Count*bs, basisLen) - off)
		default:
			return 0, fmt.Errorf("delta: op %d has unknown kind %d", i, op.Kind)
		}
		if size > d.TargetSize {
			return 0, fmt.Errorf("delta: op %d overruns target size %d", i, d.TargetSize)
		}
	}
	if size != d.TargetSize {
		return 0, fmt.Errorf("delta: reconstructed %d bytes, want %d", size, d.TargetSize)
	}
	return int(size), nil
}

// Apply reconstructs the target from the basis and a delta, once
// Validate has passed them; its error is Validate's.
//
// The output is one allocation, which bytes.Join fills with one copy
// per op (a copy run is one contiguous range of the basis) without
// zeroing it first. The list of parts lives on the stack up to
// applyParts ops; a longer delta pays one more, small allocation for
// it.
func Apply(basis []byte, d Delta) ([]byte, error) {
	if _, err := d.Validate(len(basis)); err != nil {
		return nil, err
	}
	bs := d.BlockSize
	parts := make([][]byte, 0, applyParts)
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			parts = append(parts, op.Data)
			continue
		}
		off := op.Index * bs
		parts = append(parts, basis[off:min(off+op.Count*bs, len(basis))])
	}
	return bytes.Join(parts, nil), nil
}

// applyParts is how many ops Apply gathers on the stack: a delta of a
// few scattered edits has two per edit and one more.
const applyParts = 64
