package protocol

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary frames to Decode, seeded with one encoding
// of every message type (both forms of the optional-trailer messages
// included). Decode must never panic, and a frame that decodes must
// re-encode to bytes that decode to an equal message: the codec may
// normalise (an explicit zero Hello.Caps is dropped on re-encode) but
// never lose or invent a field. The seed corpus and any crashers
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
