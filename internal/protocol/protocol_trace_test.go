package protocol

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// TestTraceCtxRoundTrip: the propagation frame survives the codec.
func TestTraceCtxRoundTrip(t *testing.T) {
	want := &TraceCtx{SpanID: 42}
	for i := range want.TraceID {
		want.TraceID[i] = byte(i + 1)
	}
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip: got %#v want %#v", got, want)
	}
	if got, want := EncodedSize(want), frameHeader+16+8; got != want {
		t.Fatalf("TraceCtx encodes to %d bytes, want %d", got, want)
	}
}

// TestTraceCtxCorrupt: a truncated context frame must error, not parse.
func TestTraceCtxCorrupt(t *testing.T) {
	enc := Encode(&TraceCtx{SpanID: 7})
	short := enc[:len(enc)-4]
	binary.LittleEndian.PutUint32(short[1:5], uint32(len(short)-frameHeader))
	if _, err := Decode(short); err == nil {
		t.Fatal("truncated TraceCtx decoded without error")
	}
}
