package delta

import (
	"fmt"
	"math"

	"cloudsync/internal/bin"
)

// Wire format of an encoded delta:
//
//	magic "DLT1" (4 bytes)
//	blockSize  uint32
//	targetSize uint64
//	opCount    uint32
//	ops:
//	  0x01 <uint32 index>                copy of one block
//	  0x02 <uint32 length> <bytes>       literal
//	  0x03 <uint32 index> <uint32 count> copy of count ≥ 2 consecutive
//	                                     blocks
//
// A delta without adjacent copies encodes exactly as it did before
// runs existed; a decoder that predates 0x03 rejects one that has them.
// Every op takes at least 5 bytes, which bounds what a hostile opCount
// can make the decoder allocate.
//
// Signatures encode as:
//
//	magic "SIG2" (4 bytes)
//	blockSize uint32
//	fileSize  uint64
//	count     uint32
//	blocks: count × (weak uint32, strong 16 bytes)  — sizes are implied
//	by position (all full except a final short block derived from
//	fileSize).
//
// The strong bytes are strongSum's SHA-256 prefix. "SIG1" frames, whose
// strong bytes were MD5, are refused: against SHA-256 sums every block
// would miss and the delta would go out all literal.
//
// Both codecs append through internal/bin and read through its
// bounded cursor; DecodeDelta and EncodedLiteralBytes walk the same op
// reader. Each value has one encoding: a decoded delta or signature
// re-encodes to exactly its input, so a run of fewer than two blocks,
// which Encode writes as 0x01, is refused.

const (
	deltaMagic  = "DLT1"
	sigMagic    = "SIG2"
	opCopyTag   = 0x01
	opLitTag    = 0x02
	opRunTag    = 0x03
	deltaHeader = 20     // magic + blockSize + targetSize + opCount
	sigHeader   = 20     // magic + blockSize + fileSize + count
	minOpSize   = 5      // tag + one uint32
	sigBlock    = 4 + 16 // weak + strong
)

// Encode serializes the delta for transmission.
func (d Delta) Encode() []byte {
	size := deltaHeader
	for _, op := range d.Ops {
		switch {
		case op.Kind == OpLiteral:
			size += 1 + 4 + len(op.Data)
		case op.Kind == OpCopy && op.Count == 1:
			size += 1 + 4
		case op.Kind == OpCopy && op.Count > 1:
			size += 1 + 4 + 4
		default:
			panic(fmt.Sprintf("delta: encoding invalid op (kind %d, count %d)", op.Kind, op.Count))
		}
	}
	buf := append(make([]byte, 0, size), deltaMagic...)
	buf = bin.AppendU64(bin.AppendU32(buf, uint32(d.BlockSize)), uint64(d.TargetSize))
	buf = bin.AppendU32(buf, uint32(len(d.Ops)))
	for _, op := range d.Ops {
		switch {
		case op.Kind == OpLiteral:
			buf = bin.AppendBytes(append(buf, opLitTag), op.Data)
		case op.Count == 1:
			buf = bin.AppendU32(append(buf, opCopyTag), uint32(op.Index))
		default:
			buf = bin.AppendU32(bin.AppendU32(append(buf, opRunTag), uint32(op.Index)), uint32(op.Count))
		}
	}
	return buf
}

// opReader walks an encoded delta: the header, then one op per next,
// then nothing. A literal's Data aliases the encoding.
type opReader struct {
	bin.Reader
	blockSize  int
	targetSize int64
	left       int // ops not yet read
}

func readOps(data []byte) opReader {
	o := opReader{Reader: bin.NewReader(data)}
	if magic := o.Take(len(deltaMagic)); string(magic) != deltaMagic {
		o.Failf("bad magic %q", data[:min(len(data), len(deltaMagic))])
	}
	bs := o.U32()
	o.targetSize = int64(o.U64())
	o.left = o.Count(minOpSize)
	if bs == 0 || bs > math.MaxInt32 {
		o.Failf("block size %d out of range", bs)
	}
	o.blockSize = int(bs)
	return o
}

// next reads the next op; false once every op is read or one fails.
func (o *opReader) next() (Op, bool) {
	if o.left == 0 || o.Err() != nil {
		return Op{}, false
	}
	o.left--
	var op Op
	switch tag := o.U8(); tag {
	case opCopyTag:
		op = Op{Kind: OpCopy, Index: int(o.U32()), Count: 1}
	case opRunTag:
		idx, count := o.U32(), o.U32()
		if count < 2 || uint64(idx)+uint64(count) > math.MaxUint32 {
			o.Failf("invalid run of %d blocks at %d", count, idx)
		}
		op = Op{Kind: OpCopy, Index: int(idx), Count: int(count)}
	case opLitTag:
		op = Op{Kind: OpLiteral, Data: o.Prefixed()}
	default:
		o.Failf("unknown op tag %#x", tag)
	}
	return op, o.Err() == nil
}

// end reports the first failure, or bytes past the last op.
func (o *opReader) end() error {
	if err := o.End(); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	return nil
}

// EncodedLiteralBytes reports how many literal data bytes an encoded
// delta carries, walking its ops without copying them — the
// traffic-attribution ledger uses it to split a DeltaMsg body into
// delta_literal vs delta_copyref without building a Delta.
func EncodedLiteralBytes(data []byte) (int64, error) {
	o := readOps(data)
	var lit int64
	for op, ok := o.next(); ok; op, ok = o.next() {
		lit += int64(len(op.Data))
	}
	return lit, o.end()
}

// DecodeDelta parses an encoded delta. It allocates no more ops than
// the input's bytes can encode, and a run stays one op whatever its
// count. Literal ops alias data rather than copy it: the caller must
// not reuse data while the delta is in use, and hands in a private
// copy when it would (a decoded DeltaMsg's Payload already is one).
func DecodeDelta(data []byte) (Delta, error) {
	o := readOps(data)
	d := Delta{BlockSize: o.blockSize, TargetSize: o.targetSize}
	if o.left > 0 {
		d.Ops = make([]Op, 0, o.left)
	}
	for op, ok := o.next(); ok; op, ok = o.next() {
		d.Ops = append(d.Ops, op)
	}
	if err := o.end(); err != nil {
		return Delta{}, err
	}
	return d, nil
}

// Encode serializes the signature for transmission.
func (s Signature) Encode() []byte {
	buf := append(make([]byte, 0, sigHeader+len(s.Blocks)*sigBlock), sigMagic...)
	buf = bin.AppendU64(bin.AppendU32(buf, uint32(s.BlockSize)), uint64(s.FileSize))
	buf = bin.AppendU32(buf, uint32(len(s.Blocks)))
	for _, b := range s.Blocks {
		buf = append(bin.AppendU32(buf, b.Weak), b.Strong[:]...)
	}
	return buf
}

// DecodeSignature parses an encoded signature, reconstructing block
// indices and sizes from the file size.
func DecodeSignature(data []byte) (Signature, error) {
	r := bin.NewReader(data)
	if magic := r.Take(len(sigMagic)); string(magic) != sigMagic {
		return Signature{}, fmt.Errorf("delta: bad signature magic %q", data[:min(len(data), len(sigMagic))])
	}
	bs, fs, n := r.U32(), r.U64(), r.Count(sigBlock)
	s := Signature{BlockSize: int(bs), FileSize: int64(fs)}
	switch {
	case r.Err() != nil: // End reports it
	case bs == 0 || bs > math.MaxInt32 || fs > math.MaxInt64:
		r.Failf("block size %d or file size %d out of range", bs, fs)
	case int64(n) != (s.FileSize+int64(bs)-1)/int64(bs):
		r.Failf("%d blocks for %d bytes in blocks of %d", n, fs, bs)
	case n > 0:
		s.Blocks = make([]BlockSig, n)
	}
	for i := range s.Blocks {
		s.Blocks[i] = BlockSig{Index: i, Size: int(min(int64(bs), s.FileSize-int64(i)*int64(bs))), Weak: r.U32(), Strong: r.Bytes16()}
	}
	if err := r.End(); err != nil {
		return Signature{}, fmt.Errorf("delta: signature: %w", err)
	}
	return s, nil
}
