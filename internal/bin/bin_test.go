package bin

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := AppendU32(nil, 7)
	b = AppendU64(b, 1<<40)
	b = AppendBool(AppendBool(b, true), false)
	b = AppendStr(b, "name")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = append(b, bytes.Repeat([]byte{9}, 16)...)
	b = append(b, 0b101)

	r := NewReader(b)
	if v := r.U32(); v != 7 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.I64(); v != 1<<40 {
		t.Fatalf("I64 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if s := r.Str(); s != "name" {
		t.Fatalf("Str = %q", s)
	}
	if p := r.Bytes(); !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", p)
	}
	if p := r.Bytes(); p == nil || len(p) != 0 {
		t.Fatalf("empty Bytes = %#v, want empty and non-nil", p)
	}
	if h := r.Bytes16(); h != [16]byte(bytes.Repeat([]byte{9}, 16)) {
		t.Fatalf("Bytes16 = %x", h)
	}
	if f := r.Flags(0b111); f != 0b101 {
		t.Fatalf("Flags = %b", f)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstFailureSticks: once a read fails, later reads return zero
// values, and End reports the first failure rather than a later one.
func TestFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 {
		t.Fatalf("short U32 = %d, want 0", v)
	}
	if v := r.U8(); v != 0 {
		t.Fatalf("U8 after a failure = %d", v)
	}
	r.Failf("later")
	if err := r.End(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("End = %v, want the truncation", err)
	}
	r = NewReader([]byte{1, 2})
	r.U8()
	if err := r.End(); err == nil || !strings.Contains(err.Error(), "1 trailing") {
		t.Fatalf("End = %v, want one trailing byte", err)
	}
}

// TestOneSpellingPerValue: a bool byte other than 0 or 1 and a flag
// byte with a bit outside the known set are refused.
func TestOneSpellingPerValue(t *testing.T) {
	for _, b := range []byte{2, 0x80, 0xFF} {
		r := NewReader([]byte{b})
		if r.Bool(); r.Err() == nil {
			t.Errorf("bool byte %#x accepted", b)
		}
	}
	for _, b := range []byte{4, 0x83} {
		r := NewReader([]byte{b})
		if r.Flags(3); r.Err() == nil {
			t.Errorf("flag byte %#x accepted against known bits 0x3", b)
		}
	}
}

// TestLengthsBoundedByInput: a length or count word names at most the
// bytes present, whatever it claims — including words of 2³¹ or more,
// which a 32-bit int reads as negative — and a refused count is 0.
func TestLengthsBoundedByInput(t *testing.T) {
	for _, n := range []uint32{5, 1 << 31, 0xFFFFFFFF} {
		in := AppendU32(nil, n)
		in = append(in, 1, 2, 3, 4)
		r := NewReader(in)
		if p := r.Prefixed(); p != nil || r.Err() == nil {
			t.Errorf("length %d over 4 bytes read %d bytes, err %v", n, len(p), r.Err())
		}
		r = NewReader(in)
		if c := r.Count(1); c != 0 || r.Err() == nil {
			t.Errorf("count %d over 4 bytes = %d, err %v", n, c, r.Err())
		}
	}
	r := NewReader(AppendU32(nil, 2))
	r.Take(-1)
	if r.Err() == nil {
		t.Error("Take(-1) succeeded")
	}
	in := append(AppendU32(nil, 2), make([]byte, 8)...)
	if r := NewReader(in); r.Count(4) != 2 || r.Err() != nil {
		t.Errorf("count 2 of 4-byte elements over 8 bytes refused: %v", r.Err())
	}
	if r := NewReader(in); r.Count(5) != 0 || r.Err() == nil {
		t.Error("count 2 of 5-byte elements over 8 bytes accepted")
	}
}
