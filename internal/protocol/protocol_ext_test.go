package protocol

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func extMessages() []Message {
	return []Message{
		&Get{Name: "docs/report.txt"},
		&FileInfo{FileID: 3, Name: "a.bin", Size: 1 << 20, Version: 7, Compression: 2},
		&SigRequest{Name: "a.bin", BlockSize: 8192},
		&SignatureMsg{Name: "a.bin", Payload: []byte{1, 2, 3, 4, 5}},
		&DeltaMsg{Name: "a.bin", Payload: []byte("delta bytes")},
		&Error{Code: ErrNotFound, Msg: "no such file"},
		&ResumeQuery{Name: "a.bin", Size: 4 << 20, FileHash: Fingerprint{9, 8, 7}},
		&ResumeInfo{FileID: 12, Offset: 3 << 20},
	}
}

func TestExtRoundTrip(t *testing.T) {
	for _, m := range extMessages() {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v roundtrip:\n got %#v\nwant %#v", m.Type(), got, m)
		}
	}
}

func TestExtTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range extMessages() {
		s := m.Type().String()
		if s == "" || strings.HasPrefix(s, "msgtype(") || seen[s] {
			t.Errorf("type %d has bad name %q", m.Type(), s)
		}
		seen[s] = true
	}
}

func TestExtTypesDoNotCollideWithBase(t *testing.T) {
	base := map[MsgType]bool{}
	for _, m := range allMessages() {
		base[m.Type()] = true
	}
	for _, m := range extMessages() {
		if base[m.Type()] {
			t.Errorf("type %d collides with a base message", m.Type())
		}
	}
}

func TestErrorImplementsError(t *testing.T) {
	var err error = &Error{Code: ErrBadRequest, Msg: "nope"}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestNamedPayloadCorruption(t *testing.T) {
	enc := Encode(&DeltaMsg{Name: "x", Payload: []byte{1, 2, 3}})
	// Corrupt the payload length to exceed the body.
	enc[len(enc)-4-3] = 0xFF
	if _, err := Decode(enc); err == nil {
		t.Fatal("corrupt payload length not rejected")
	}
}

func TestEmptyPayloadRoundTrip(t *testing.T) {
	got, err := Decode(Encode(&SignatureMsg{Name: "empty"}))
	if err != nil {
		t.Fatal(err)
	}
	sig := got.(*SignatureMsg)
	if sig.Name != "empty" || len(sig.Payload) != 0 {
		t.Fatalf("roundtrip = %+v", sig)
	}
}

// TestDeltaMsgLegacyInterop pins the version precondition's wire
// contract: a DeltaMsg that names no base version is, byte for byte,
// the frame peers wrote before the field existed (golden bytes taken
// from that encoder), that frame decodes with BaseVersion zero, and
// naming a version appends exactly the 8-byte word.
func TestDeltaMsgLegacyInterop(t *testing.T) {
	legacy, err := hex.DecodeString("0d1800000005000000612e62696e0b00000064656c7461206279746573")
	if err != nil {
		t.Fatal(err)
	}
	plain := &DeltaMsg{Name: "a.bin", Payload: []byte("delta bytes")}
	if got := Encode(plain); !bytes.Equal(got, legacy) {
		t.Fatalf("unconditional DeltaMsg differs from the legacy frame:\n got %x\nwant %x", got, legacy)
	}
	m, err := Decode(legacy)
	if err != nil {
		t.Fatalf("decoding the legacy frame: %v", err)
	}
	if !reflect.DeepEqual(m, plain) {
		t.Fatalf("legacy frame decoded to %#v", m)
	}
	cond := Encode(&DeltaMsg{Name: "a.bin", Payload: []byte("delta bytes"), BaseVersion: 1 << 40})
	if got, want := len(cond), len(legacy)+8; got != want {
		t.Fatalf("conditional DeltaMsg is %d bytes, want %d", got, want)
	}
	if !bytes.Equal(cond[frameHeader:len(legacy)], legacy[frameHeader:]) {
		t.Fatal("conditional DeltaMsg body prefix differs from the legacy body")
	}
	// A torn version word is a decode error, not a zero version.
	cond = cond[:len(cond)-3]
	cond[1] -= 3
	if _, err := Decode(cond); err == nil {
		t.Fatal("truncated base version not rejected")
	}
}

// Property: any (name, payload, base version) triple round-trips, zero
// version included.
func TestPropertyDeltaMsgRoundTrip(t *testing.T) {
	f := func(name string, payload []byte, base uint64) bool {
		got, err := Decode(Encode(&DeltaMsg{Name: name, Payload: payload, BaseVersion: base}))
		if err != nil {
			return false
		}
		d := got.(*DeltaMsg)
		return d.Name == name && bytes.Equal(d.Payload, payload) && d.BaseVersion == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
