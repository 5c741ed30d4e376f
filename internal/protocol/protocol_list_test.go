package protocol

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"reflect"
	"testing"
)

// Golden frames from the encoder that predates the change-feed
// trailers: the empty ListRequest, and a two-entry Listing.
const (
	legacyListRequestHex = "1300000000"
	legacyListingHex     = "146600000002000000030000000000000005000000612e7478742a000000000000000200000000000000000cc175b9c0f1b6a831c399e2697726610900000000000000030000006f6c64070000000000000004000000000000000100000000000000000000000000000000"
)

func legacyListingEntries() []ListEntry {
	return []ListEntry{
		{FileID: 3, Name: "a.txt", Size: 42, Version: 2, FileHash: md5.Sum([]byte("a"))},
		{FileID: 9, Name: "old", Size: 7, Version: 4, Deleted: true},
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestListLegacyInterop pins the change feed's wire contract the way
// TestDeltaMsgLegacyInterop pins the delta's version precondition: a
// request without a cursor and a listing that answers one are, byte
// for byte, the frames peers wrote before the feed existed; those
// frames decode as non-feed messages; and the feed forms append exactly
// their trailers to the legacy bodies — 16 bytes of cursor on the
// request, 17 bytes of cursor and flags on the listing. A torn trailer
// is a decode error, never a zero cursor.
func TestListLegacyInterop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		legacy []byte
		plain  Message
		feed   Message
		extra  int
	}{
		{"ListRequest", mustHex(t, legacyListRequestHex), &ListRequest{},
			&ListRequest{Feed: true, Epoch: 1 << 40, Since: 7}, 16},
		{"Listing", mustHex(t, legacyListingHex), &Listing{Entries: legacyListingEntries()},
			&Listing{Entries: legacyListingEntries(), Feed: true, Epoch: 1 << 40, Seq: 9, Incremental: true}, 17},
	} {
		if got := Encode(tc.plain); !bytes.Equal(got, tc.legacy) {
			t.Fatalf("%s without a cursor differs from the legacy frame:\n got %x\nwant %x", tc.name, got, tc.legacy)
		}
		m, err := Decode(tc.legacy)
		if err != nil {
			t.Fatalf("decoding the legacy %s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(tc.plain)) {
			t.Fatalf("legacy %s decoded to %#v", tc.name, m)
		}
		feed := Encode(tc.feed)
		if got, want := len(feed), len(tc.legacy)+tc.extra; got != want {
			t.Fatalf("feed %s is %d bytes, want %d", tc.name, got, want)
		}
		if !bytes.Equal(feed[frameHeader:len(tc.legacy)], tc.legacy[frameHeader:]) {
			t.Fatalf("feed %s body prefix differs from the legacy body", tc.name)
		}
		if m, err := Decode(feed); err != nil || !reflect.DeepEqual(m, tc.feed) {
			t.Fatalf("feed %s round trip: %#v, %v", tc.name, m, err)
		}
		for cut := 1; cut < tc.extra; cut++ {
			torn := append([]byte(nil), feed[:len(feed)-cut]...)
			torn[1] -= byte(cut)
			if _, err := Decode(torn); err == nil {
				t.Fatalf("%s with a trailer torn %d bytes short decoded", tc.name, cut)
			}
		}
	}
}

// TestFeedCursorZeroIsExplicit: a feed request with an all-zero cursor
// (a client that has none yet) still carries its trailer — the
// trailer's presence, not its value, is what asks for a feed.
func TestFeedCursorZeroIsExplicit(t *testing.T) {
	enc := Encode(&ListRequest{Feed: true})
	if len(enc) != frameHeader+16 {
		t.Fatalf("zero-cursor feed request is %d bytes, want %d", len(enc), frameHeader+16)
	}
	m, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.(*ListRequest); !r.Feed || r.Epoch != 0 || r.Since != 0 {
		t.Fatalf("decoded %#v, want a feed request with a zero cursor", r)
	}
}
