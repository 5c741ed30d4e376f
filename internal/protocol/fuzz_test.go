package protocol

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary frames to Decode, seeded with one encoding
// of every message type. Every message has exactly one encoding, so
// Decode must never panic, and a frame that decodes must re-encode to
// bytes that decode to an equal message: the codec never loses or
// invents a field. The seed corpus and any crashers
// committed under testdata/fuzz/FuzzDecode replay in the ordinary test
// run; `make fuzz` explores beyond them.
func FuzzDecode(f *testing.F) {
	for _, m := range append(allMessages(), extMessages()...) {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Decode(frame)
		if err != nil {
			return
		}
		again, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v re-encoded to an undecodable frame: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(normalize(again), normalize(m)) {
			t.Fatalf("%v changed across re-encoding:\n got %#v\nwant %#v", m.Type(), again, m)
		}
	})
}

// FuzzReadMessage feeds arbitrary streams to ReadMessageBuf, the path a
// connection's bytes take before Decode sees them, seeded with every
// message type whole, cut in half, and behind a length word claiming
// far more than follows. It must never panic, its frame buffer must
// stay within twice the bytes the stream held plus the 4 KiB it starts
// with — whatever the length word claims — and a message it returns
// must be read from exactly the stream's first frame.
func FuzzReadMessage(f *testing.F) {
	for _, m := range append(allMessages(), extMessages()...) {
		enc := Encode(m)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append([]byte{enc[0], 0xF0, 0xFF, 0xFF, 0xFF}, enc[frameHeader:]...))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		m, buf, err := ReadMessageBuf(bytes.NewReader(stream), nil)
		if limit := 2*len(stream) + 4096; cap(buf) > limit {
			t.Fatalf("a %d-byte stream grew the frame buffer to %d bytes (limit %d)", len(stream), cap(buf), limit)
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(stream, buf) {
			t.Fatalf("%v was not read from the stream's first frame", m.Type())
		}
	})
}
