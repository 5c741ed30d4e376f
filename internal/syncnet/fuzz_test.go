package syncnet

import (
	"bytes"
	"testing"

	"cloudsync/internal/store/wal"
)

// FuzzRecord feeds arbitrary bytes to decodeRecord, seeded with every
// record of testdata/statedir (content, index and file records, from its
// snapshot and its log). A record either fails to decode or re-encodes to
// exactly its bytes, and apply of it never panics — on a fresh state,
// and on one holding content under the record's hash, so a file record
// takes its whole path. The seeds and any crashers committed under
// testdata/fuzz/FuzzRecord replay in the ordinary test run; `make fuzz`
// explores beyond them.
func FuzzRecord(f *testing.F) {
	st, err := wal.Open(copyStateDir(f, formatDir), func(rec []byte) error {
		f.Add(bytes.Clone(rec))
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	st.Close()
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecord(b)
		if err != nil {
			return
		}
		if got := r.encode(); !bytes.Equal(got, b) {
			t.Fatalf("decoded %+v re-encodes to %x, not %x", r, got, b)
		}
		NewServer(ServerConfig{}).apply(r)
		s := NewServer(ServerConfig{CrossUserDedup: true})
		s.apply(record{kind: recContent, hash: r.hash, data: []byte("held")})
		s.apply(r)
	})
}
