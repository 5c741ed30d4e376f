package syncnet

import (
	"fmt"

	"cloudsync/internal/dedup"
	"cloudsync/internal/obs"
)

// state is what the server's log records and replay rebuilds; apply is
// its only writer, live and on replay. The change feed is lifetime
// state beside it, never replayed (see feed.go).
type state struct {
	users map[string]*account
	// byID indexes each user's files by FileID, which a Delete names. It
	// is never pruned: deletion is fake and a recreated name keeps its file.
	byID        map[fileKey]*serverFile
	byHash      map[dedup.Fingerprint]*blob // full-file dedup content store (leaves.go)
	index       *dedup.Index
	nextID      uint64     // the highest FileID a file record named
	bytesStored *obs.Gauge // syncd_bytes_stored: the bytes in byHash
}

// files returns the user's namespace: nil, read as empty, before any.
func (st *state) files(user string) map[string]*serverFile {
	if a := st.users[user]; a != nil {
		return a.files
	}
	return nil
}

// apply makes r part of the state, taking no lock and doing no I/O. A
// content record's content is kept, not copied, when its hash is new. A
// file record becomes the file's, on the store's copy of its content,
// which it files in the dedup index; one naming content the state lacks
// is an error and changes nothing.
func (st *state) apply(r record) error {
	switch r.kind {
	case recContent:
		if _, ok := st.byHash[r.hash]; !ok {
			st.byHash[r.hash] = r.data
			st.bytesStored.Add(int64(r.data.size()))
		}
	case recIndex:
		st.index.Add(r.user, r.hash, r.size) // a scope is a user name, or "" cross-user
	case recFile:
		data, ok := st.byHash[r.hash]
		if !ok {
			return fmt.Errorf("syncnet: file record %s/%s references unknown content %x", r.user, r.name, r.hash)
		}
		a := st.users[r.user]
		if a == nil {
			a = &account{files: make(map[string]*serverFile)}
			st.users[r.user] = a
		}
		f := a.files[r.name]
		if f == nil {
			f = &serverFile{}
			a.files[r.name], st.byID[fileKey{r.user, r.id}] = f, f
		} else if f.id != r.id {
			return fmt.Errorf("syncnet: file record %s/%s names id %d, not the file's %d", r.user, r.name, r.id, f.id)
		}
		f.record, f.data = r, data
		st.index.Add(r.user, r.hash, int64(data.size()))
		st.nextID = max(st.nextID, r.id)
	default:
		return fmt.Errorf("syncnet: cannot apply state record kind %d", r.kind)
	}
	return nil
}
