// Package bin is the one little-endian binary codec under the live
// protocol's frames, the server's durable-state records and the delta
// and signature blobs. Encoding is plain appends; decoding is Reader, a
// strict, bounded cursor. Each value has exactly one encoding: a bool
// byte above 1 or a flag byte with an unknown bit is refused, not read
// as its nearest meaning. Every length and count a sender writes is
// checked against the bytes actually present before anything is sized
// by it, in 64 bits, so a word of 2³¹ or more cannot turn negative on a
// 32-bit int.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendStr appends s behind a uint32 length.
func AppendStr(b []byte, s string) []byte { return append(AppendU32(b, uint32(len(s))), s...) }

// AppendBytes appends p behind a uint32 length.
func AppendBytes(b, p []byte) []byte { return append(AppendU32(b, uint32(len(p))), p...) }

// errShort is the failure of a read past the end of the buffer.
var errShort = errors.New("truncated")

// Reader decodes a buffer front to back, slicing it in place. The first
// failure sticks: every later read returns a zero value, so a decoder
// reads a whole value and checks End (or Err) once. Reads that return
// a slice alias the buffer; Str and Bytes copy.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err reports the first failure, nil while every read has fit.
func (r *Reader) Err() error { return r.err }

// End reports the first failure, or the bytes left over when every
// read fit: a decoder that calls it has consumed its input exactly.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Failf records a caller's own refusal (a value out of range, an
// unknown tag) unless an earlier failure stands.
func (r *Reader) Failf(format string, args ...any) { r.fail(fmt.Errorf(format, args...)) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// take consumes n bytes, nil once the reader has failed. n is 64-bit so
// a length word is compared before anything converts it to int.
func (r *Reader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail(errShort)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Take reads n raw bytes.
func (r *Reader) Take(n int) []byte { return r.take(uint64(n)) }

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a byte written by AppendBool; any other value fails.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("bool byte %d", v)
	}
	return v == 1
}

// Flags reads a flag byte whose bits must all lie in known.
func (r *Reader) Flags(known byte) byte {
	v := r.U8()
	if v&^known != 0 {
		r.Failf("flag byte %#x has bits outside %#x", v, known)
		return 0
	}
	return v
}

// Bytes16 reads a 16-byte array: a content fingerprint, a trace ID.
func (r *Reader) Bytes16() (v [16]byte) {
	copy(v[:], r.take(16))
	return v
}

// Prefixed reads a uint32-length-prefixed byte slice.
func (r *Reader) Prefixed() []byte { return r.take(uint64(r.U32())) }

// Str reads a string written by AppendStr.
func (r *Reader) Str() string { return string(r.Prefixed()) }

// Bytes reads a copy of a slice written by AppendBytes (empty, never
// nil, when the slice was): the result survives reuse of the buffer.
func (r *Reader) Bytes() []byte {
	p := r.Prefixed()
	if r.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(p)), p...)
}

// Count reads a uint32 element count and refuses one that the bytes
// left cannot hold at minElemBytes (≥ 1) per element, so a caller may
// size a slice by the result before reading its elements.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U32()
	if uint64(n)*uint64(minElemBytes) > uint64(len(r.b)) {
		r.Failf("count %d of %d-byte elements exceeds the %d bytes left", n, minElemBytes, len(r.b))
		return 0
	}
	return int(n)
}
