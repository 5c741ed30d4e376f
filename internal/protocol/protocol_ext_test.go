package protocol

import (
	"bytes"
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
		&SignatureMsg{Name: "a.bin", Payload: []byte{1, 2, 3, 4, 5}, Version: 7},
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
	// Corrupt the payload length, after the name, to exceed the body.
	enc[frameHeader+4+len("x")] = 0xFF
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

// TestSignatureMsgCarriesItsVersion: the version a signature describes
// round-trips as a fixed trailing word, and a frame without it — the
// shape a SignatureMsg had before the field — is a decode error, not a
// signature of version 0.
func TestSignatureMsgCarriesItsVersion(t *testing.T) {
	m := &SignatureMsg{Name: "a.bin", Payload: []byte("sig"), Version: 1 << 40}
	enc := Encode(m)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %#v, want %#v", got, m)
	}
	short := Encode(&SignatureMsg{Name: "a.bin", Payload: []byte("sig")})
	short = short[:len(short)-8]
	short[1] -= 8
	if _, err := Decode(short); err == nil {
		t.Fatal("a SignatureMsg without its version decoded")
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
