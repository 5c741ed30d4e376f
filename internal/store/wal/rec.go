package wal

import (
	"encoding/binary"
	"errors"
)

// Record codec helpers shared by the package's callers: the WAL itself
// is value-free about record contents, but every caller's codec wants
// the same primitives — little-endian fixed-width integers and
// u32-length-prefixed strings and byte slices.

// AppendStr appends a u32-length-prefixed string.
func AppendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendBytes appends a u32-length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// RecCursor decodes a record sequentially; the first short read sets
// the error and every later accessor returns zero values, so a caller
// can decode a whole record and check Err once.
type RecCursor struct {
	b   []byte
	err error
}

// NewRecCursor wraps a record's bytes for decoding. The cursor reads
// from the slice in place; returned sub-slices alias it.
func NewRecCursor(b []byte) *RecCursor { return &RecCursor{b: b} }

// Err reports the first decode failure, nil if all reads fit.
func (c *RecCursor) Err() error { return c.err }

// Rest returns the undecoded remainder.
func (c *RecCursor) Rest() []byte { return c.b }

func (c *RecCursor) fail() {
	if c.err == nil {
		c.err = errors.New("wal: truncated record")
	}
}

// U8 reads one byte.
func (c *RecCursor) U8() uint8 {
	if c.err != nil || len(c.b) < 1 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// U32 reads a little-endian uint32.
func (c *RecCursor) U32() uint32 {
	if c.err != nil || len(c.b) < 4 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

// U64 reads a little-endian uint64.
func (c *RecCursor) U64() uint64 {
	if c.err != nil || len(c.b) < 8 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// I64 reads a little-endian int64 (two's-complement of U64).
func (c *RecCursor) I64() int64 { return int64(c.U64()) }

// Take reads n raw bytes (aliasing the record).
func (c *RecCursor) Take(n int) []byte {
	if c.err != nil || n < 0 || len(c.b) < n {
		c.fail()
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// Str reads a u32-length-prefixed string.
func (c *RecCursor) Str() string { return string(c.Take(int(c.U32()))) }

// Bytes reads a u32-length-prefixed byte slice (aliasing the record).
func (c *RecCursor) Bytes() []byte { return c.Take(int(c.U32())) }

// Hash16 reads a 16-byte digest (a content fingerprint).
func (c *RecCursor) Hash16() (h [16]byte) {
	copy(h[:], c.Take(len(h)))
	return h
}
