package delta

import (
	"encoding/binary"
	"fmt"
	"math"
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
//	  0x03 <uint32 index> <uint32 count> copy of count ≥ 1 consecutive
//	                                     blocks (written for count ≥ 2)
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
// Both codecs write little-endian fields by hand into one buffer sized
// up front, and parse with direct offset arithmetic: the reflection-
// driven binary.Write/binary.Read per field (and the bytes.Buffer
// growth behind it) used to dominate the codec's allocation profile.

const (
	deltaMagic  = "DLT1"
	sigMagic    = "SIG2"
	opCopyTag   = 0x01
	opLitTag    = 0x02
	opRunTag    = 0x03
	deltaHeader = 20 // magic + blockSize + targetSize + opCount
	sigHeader   = 20 // magic + blockSize + fileSize + count
	minOpSize   = 5  // tag + one uint32
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
	buf := make([]byte, 0, size)
	buf = append(buf, deltaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.BlockSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.TargetSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Ops)))
	for _, op := range d.Ops {
		switch {
		case op.Kind == OpLiteral:
			buf = append(buf, opLitTag)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.Data)))
			buf = append(buf, op.Data...)
		case op.Count == 1:
			buf = append(buf, opCopyTag)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Index))
		default:
			buf = append(buf, opRunTag)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Index))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Count))
		}
	}
	return buf
}

// EncodedLiteralBytes reports how many literal data bytes an encoded
// delta carries, scanning the op stream without decoding or copying —
// the traffic-attribution ledger uses it to split a DeltaMsg body into
// delta_literal vs delta_copyref without paying a second decode.
func EncodedLiteralBytes(data []byte) (int64, error) {
	if len(data) < deltaHeader || string(data[:4]) != deltaMagic {
		return 0, fmt.Errorf("delta: bad magic in encoded delta")
	}
	n := binary.LittleEndian.Uint32(data[16:deltaHeader])
	off := deltaHeader
	var lit int64
	for i := uint32(0); i < n; i++ {
		if off >= len(data) {
			return 0, fmt.Errorf("delta: truncated at op %d", i)
		}
		tag := data[off]
		off++
		switch tag {
		case opCopyTag:
			off += 4
		case opRunTag:
			off += 8
		case opLitTag:
			if off+4 > len(data) {
				return 0, fmt.Errorf("delta: truncated literal length at op %d", i)
			}
			l := binary.LittleEndian.Uint32(data[off : off+4])
			off += 4
			if uint64(l) > uint64(len(data)-off) {
				return 0, fmt.Errorf("delta: literal of %d bytes at op %d exceeds %d remaining", l, i, len(data)-off)
			}
			off += int(l)
			lit += int64(l)
		default:
			return 0, fmt.Errorf("delta: op %d has unknown tag %#x", i, tag)
		}
	}
	if off > len(data) {
		return 0, fmt.Errorf("delta: ops run past the encoding")
	}
	return lit, nil
}

// DecodeDelta parses an encoded delta. It allocates no more ops than
// the input's bytes can encode, and a run stays one op whatever its
// count.
func DecodeDelta(data []byte) (Delta, error) {
	var d Delta
	if len(data) < deltaHeader || string(data[:4]) != deltaMagic {
		return d, fmt.Errorf("delta: bad magic %q", truncMagic(data))
	}
	bs := binary.LittleEndian.Uint32(data[4:8])
	ts := binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint32(data[16:deltaHeader])
	if bs == 0 || bs > math.MaxInt32 {
		return d, fmt.Errorf("delta: block size %d out of range", bs)
	}
	d.BlockSize = int(bs)
	d.TargetSize = int64(ts)
	if n > 0 {
		// The bound is taken before converting to int: on a 32-bit int
		// a count word of 2³¹ or more would turn negative.
		d.Ops = make([]Op, 0, int(min(uint64(n), uint64(len(data)-deltaHeader)/minOpSize)))
	}
	off := deltaHeader
	for i := uint32(0); i < n; i++ {
		if off >= len(data) {
			return d, fmt.Errorf("delta: op %d: unexpected EOF", i)
		}
		tag := data[off]
		off++
		switch tag {
		case opCopyTag:
			if off+4 > len(data) {
				return d, fmt.Errorf("delta: op %d index: unexpected EOF", i)
			}
			idx := binary.LittleEndian.Uint32(data[off : off+4])
			off += 4
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: int(idx), Count: 1})
		case opRunTag:
			if off+8 > len(data) {
				return d, fmt.Errorf("delta: op %d run: unexpected EOF", i)
			}
			idx := binary.LittleEndian.Uint32(data[off : off+4])
			count := binary.LittleEndian.Uint32(data[off+4 : off+8])
			off += 8
			if count == 0 || uint64(idx)+uint64(count) > math.MaxUint32 {
				return d, fmt.Errorf("delta: op %d has invalid run of %d blocks at %d", i, count, idx)
			}
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: int(idx), Count: int(count)})
		case opLitTag:
			if off+4 > len(data) {
				return d, fmt.Errorf("delta: op %d length: unexpected EOF", i)
			}
			length := binary.LittleEndian.Uint32(data[off : off+4])
			off += 4
			if uint64(length) > uint64(len(data)-off) {
				return d, fmt.Errorf("delta: op %d literal of %d bytes exceeds %d remaining",
					i, length, len(data)-off)
			}
			lit := make([]byte, length)
			copy(lit, data[off:off+int(length)])
			off += int(length)
			d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: lit})
		default:
			return d, fmt.Errorf("delta: op %d has unknown tag %#x", i, tag)
		}
	}
	if off != len(data) {
		return d, fmt.Errorf("delta: %d trailing bytes", len(data)-off)
	}
	return d, nil
}

// Encode serializes the signature for transmission.
func (s Signature) Encode() []byte {
	buf := make([]byte, 0, sigHeader+len(s.Blocks)*(4+16))
	buf = append(buf, sigMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.BlockSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.FileSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Blocks)))
	for _, b := range s.Blocks {
		buf = binary.LittleEndian.AppendUint32(buf, b.Weak)
		buf = append(buf, b.Strong[:]...)
	}
	return buf
}

// DecodeSignature parses an encoded signature, reconstructing block
// indices and sizes from the file size.
func DecodeSignature(data []byte) (Signature, error) {
	var s Signature
	if len(data) < sigHeader || string(data[:4]) != sigMagic {
		return s, fmt.Errorf("delta: bad signature magic %q", truncMagic(data))
	}
	bs := binary.LittleEndian.Uint32(data[4:8])
	fs := binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint32(data[16:sigHeader])
	if bs == 0 || bs > math.MaxInt32 {
		return s, fmt.Errorf("delta: signature block size %d out of range", bs)
	}
	if fs > math.MaxInt64 {
		return s, fmt.Errorf("delta: signature file size %d out of range", fs)
	}
	s.BlockSize = int(bs)
	s.FileSize = int64(fs)
	want := (s.FileSize + int64(bs) - 1) / int64(bs)
	if int64(n) != want {
		return s, fmt.Errorf("delta: signature has %d blocks, file size implies %d", n, want)
	}
	if uint64(len(data)-sigHeader) != uint64(n)*(4+16) {
		return s, fmt.Errorf("delta: signature body is %d bytes, %d blocks imply %d",
			len(data)-sigHeader, n, uint64(n)*(4+16))
	}
	if n > 0 {
		s.Blocks = make([]BlockSig, n)
	}
	off := sigHeader
	for i := uint32(0); i < n; i++ {
		blk := &s.Blocks[i]
		blk.Index = int(i)
		blk.Size = s.BlockSize
		if rem := s.FileSize - int64(i)*int64(bs); rem < int64(blk.Size) {
			blk.Size = int(rem)
		}
		blk.Weak = binary.LittleEndian.Uint32(data[off : off+4])
		copy(blk.Strong[:], data[off+4:off+20])
		off += 20
	}
	return s, nil
}

// truncMagic quotes up to the first four bytes for error messages.
func truncMagic(data []byte) []byte {
	if len(data) > 4 {
		return data[:4]
	}
	return data
}
