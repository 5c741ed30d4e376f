package syncnet

import (
	"bytes"
	"testing"

	"cloudsync/internal/protocol"
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
		s.apply(record{kind: recContent, hash: r.hash, data: newBlob([]byte("held"))})
		s.apply(r)
	})
}

// FuzzBundle feeds arbitrary frames that decode as a Bundle to a
// server's session, seeded with bundles of valid entries, a wrong hash,
// a wrong size, a size past maxFileSize and a dedup hit on the one file
// the server holds before each run. The server must not panic; it
// answers with one result per entry, or with an Error; and every entry
// it reports OK is stored under its announced size and protocol.Sum,
// the last one of a name as that file's content.
func FuzzBundle(f *testing.F) {
	held := []byte("held before the bundle arrives")
	entry := func(name string, data []byte) protocol.BundleEntry {
		return protocol.BundleEntry{Name: name, Size: int64(len(data)), FileHash: protocol.Sum(data), Payload: data}
	}
	wrongHash, wrongSize, oversized := entry("h.txt", []byte("hash")), entry("s.txt", []byte("size")), entry("o.txt", []byte("big"))
	wrongHash.FileHash[0] ^= 1
	wrongSize.Size++
	oversized.Size = maxFileSize + 1
	hit := entry("copy.txt", held)
	hit.Payload = nil
	for _, b := range []*protocol.Bundle{
		{Entries: []protocol.BundleEntry{entry("a.txt", []byte("alpha")), entry("b.txt", bytes.Repeat([]byte("b"), 3*protocol.LeafSize/2))}},
		{Entries: []protocol.BundleEntry{wrongHash, entry("a.txt", nil), wrongSize, oversized}},
		{Entries: []protocol.BundleEntry{hit, entry("a.txt", []byte("one")), entry("a.txt", []byte("two"))}},
		{},
	} {
		f.Add(protocol.Encode(b))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := protocol.Decode(frame)
		b, ok := m.(*protocol.Bundle)
		if err != nil || !ok {
			return
		}
		srv := NewServer(ServerConfig{})
		defer srv.Close()
		srv.apply(record{kind: recContent, hash: protocol.Sum(held), data: newBlob(held)})
		srv.apply(record{kind: recFile, user: "u", name: "held.txt", id: 1, version: 1, history: 1, hash: protocol.Sum(held)})

		raw := openRaw(t, srv, "u")
		reply := raw.roundTrip(b)
		raw.conn.Close()
		<-raw.done
		if _, ok := reply.(*protocol.Error); ok {
			return
		}
		br, ok := reply.(*protocol.BundleReply)
		if !ok || len(br.Results) != len(b.Entries) {
			t.Fatalf("a %d-entry bundle answered with %#v", len(b.Entries), reply)
		}
		last := make(map[string]protocol.BundleEntry)
		for i, res := range br.Results {
			if !res.OK {
				continue
			}
			en := b.Entries[i]
			srv.mu.Lock()
			kept, stored := srv.byHash[en.FileHash]
			srv.mu.Unlock()
			if !stored || int64(kept.size()) != en.Size || protocol.Sum(kept.bytes()) != en.FileHash {
				t.Fatalf("entry %d (%q) OK but its content is not stored under size %d and its Sum", i, en.Name, en.Size)
			}
			last[en.Name] = en
		}
		for name, en := range last {
			if got, ok := srv.FileContent("u", name); !ok || protocol.Sum(got) != en.FileHash {
				t.Fatalf("%q holds %d bytes, not the last OK entry's %d", name, len(got), en.Size)
			}
		}
	})
}
