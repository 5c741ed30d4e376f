package protocol

import "testing"

// TestFeedCursorZeroIsExplicit: a request with an all-zero cursor (a
// client that has none yet) still carries the whole cursor, and a
// cursor torn short is a decode error, never a zero cursor.
func TestFeedCursorZeroIsExplicit(t *testing.T) {
	enc := Encode(&ListRequest{})
	if len(enc) != frameHeader+16 {
		t.Fatalf("zero-cursor feed request is %d bytes, want %d", len(enc), frameHeader+16)
	}
	m, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.(*ListRequest); r.Epoch != 0 || r.Since != 0 {
		t.Fatalf("decoded %#v, want a zero cursor", r)
	}
	for cut := 1; cut <= 16; cut++ {
		torn := append([]byte(nil), enc[:len(enc)-cut]...)
		torn[1] -= byte(cut)
		if _, err := Decode(torn); err == nil {
			t.Fatalf("a ListRequest with its cursor torn %d bytes short decoded", cut)
		}
	}
}
