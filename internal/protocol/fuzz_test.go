package protocol

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary frames to Decode, seeded with one encoding
// of every message type and with three frames that differ from a valid
// encoding only in how a value is spelled: an IndexReply whose DedupHit
// byte is 2, a BundleReply result with an unknown flag bit, and a
// Listing whose Incremental byte is 3. Every message has exactly one
// encoding, so Decode must never panic, and a frame that decodes must
// re-encode to exactly its bytes. The seed corpus and any crashers
// committed under testdata/fuzz/FuzzDecode replay in the ordinary test
// run; `make fuzz` explores beyond them.
func FuzzDecode(f *testing.F) {
	for _, m := range append(allMessages(), extMessages()...) {
		f.Add(Encode(m))
	}
	for _, nc := range nonCanonical() {
		f.Add(nc)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Decode(frame)
		if err != nil {
			return
		}
		if again := Encode(m); !bytes.Equal(again, frame) {
			t.Fatalf("%v re-encodes to\n%x, not\n%x", m.Type(), again, frame)
		}
	})
}

// nonCanonical returns valid frames with one value byte respelled: each
// would decode to the message it was cut from, which encodes otherwise.
func nonCanonical() [][]byte {
	respell := func(m Message, off int, b byte) []byte {
		enc := Encode(m)
		enc[len(enc)-off] = b
		return enc
	}
	return [][]byte{
		respell(&IndexReply{FileID: 1, DedupHit: true}, 5, 2),                         // DedupHit, before the empty NeedBlocks count
		respell(&BundleReply{Results: []BundleResult{{FileID: 1, OK: true}}}, 1, 1|4), // OK plus an unknown bit
		respell(&Listing{Epoch: 1, Seq: 2, Incremental: true}, 1, 3),                  // Incremental
	}
}

// TestDecodeRefusesNonCanonical: each respelled frame is refused.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	for i, frame := range nonCanonical() {
		if m, err := Decode(frame); err == nil {
			t.Errorf("frame %d (%x) decoded to %#v", i, frame, m)
		}
	}
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
