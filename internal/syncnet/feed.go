package syncnet

import (
	"math/rand/v2"
	"slices"
	"strings"

	"cloudsync/internal/protocol"
)

// The change feed, server half. A device polling for remote changes
// used to be sent the whole namespace every time; now it names the
// cursor of the last listing it applied and is sent only the files
// committed since. Each account numbers its commits, and the files
// themselves form the feed: an intrusive list in commit order, newest
// last, so an incremental listing walks back from the newest file
// until it reaches the cursor — it visits the changed files and no
// other, under s.mu and on the wire. The client half is client_list.go.

// account is one user's namespace and its change feed.
type account struct {
	files map[string]*serverFile
	// seq counts the commits stamped in this server's lifetime; newest
	// is the last file stamped, the tail of the commit-order list.
	seq    uint64
	newest *serverFile
}

// newEpoch draws the server's epoch: random and never zero, because
// zero is the cursor of a client that has none yet. It is not
// persisted, so a reopened server — after a clean close or a crash —
// honours no cursor it did not hand out, and every client's next poll
// is a full listing of the state that actually survived. That also
// makes it harmless that a listing may show a commit before its group
// commit's fsync: if the fsync never happens, neither does the epoch
// that listing named.
func newEpoch() uint64 {
	for {
		if e := rand.Uint64(); e != 0 {
			return e
		}
	}
}

// stampLocked gives f the account's next sequence number and moves it to
// the newest end of the commit-order list. commitLocked's call after each
// file record is the one place the feed is written, in O(1) pointer
// updates with no allocation. s.mu is held.
func (s *Server) stampLocked(user string, f *serverFile) {
	acct := s.users[user]
	acct.seq++
	f.seq = acct.seq
	if acct.newest != f {
		// Unlink (a no-op for a file not yet in the list: both links nil,
		// and it is not the newest), then append.
		if f.older != nil {
			f.older.newer = f.newer
		}
		if f.newer != nil {
			f.newer.older = f.older
		}
		f.older, f.newer = acct.newest, nil
		if acct.newest != nil {
			acct.newest.newer = f
		}
		acct.newest = f
	}
}

func (f *serverFile) listEntry() protocol.ListEntry {
	return protocol.ListEntry{
		FileID: f.id, Name: f.name, Size: int64(len(f.data)),
		Version: f.version, Deleted: f.deleted, FileHash: f.hash,
	}
}

// onList answers a listing request. A request whose cursor this server
// handed out — its epoch, at or behind the account's sequence — is
// answered incrementally: the files committed since, nothing else. Any
// other request (no cursor yet, a cursor from before a reopen, or one
// the server never issued) gets the whole namespace; the reply says
// which it is and carries the cursor the client holds once it has
// applied it. Entries are sorted by name so a reply is deterministic
// for a given state; fake-deleted files are included (flagged) because
// a planner must distinguish "deleted remotely" from "never existed".
func (ss *session) onList(m *protocol.ListRequest) error {
	s := ss.srv
	s.mu.Lock()
	acct := s.users[ss.user]
	if acct == nil {
		acct = &account{} // no commit yet: an empty namespace at seq 0
	}
	reply := &protocol.Listing{Epoch: s.epoch, Seq: acct.seq,
		Incremental: m.Epoch == s.epoch && m.Since <= acct.seq}
	if reply.Incremental {
		for f := acct.newest; f != nil && f.seq > m.Since; f = f.older {
			reply.Entries = append(reply.Entries, f.listEntry())
		}
	} else {
		reply.Entries = make([]protocol.ListEntry, 0, len(acct.files))
		for _, f := range acct.files {
			reply.Entries = append(reply.Entries, f.listEntry())
		}
	}
	s.mu.Unlock()
	slices.SortFunc(reply.Entries, func(a, b protocol.ListEntry) int {
		return strings.Compare(a.Name, b.Name)
	})
	s.om.listingEntries.Observe(int64(len(reply.Entries)))
	if !reply.Incremental {
		s.om.listingResyncs.Inc()
	}
	if s.cfg.Logf != nil {
		s.logf("listing: %d entries for %s (incremental=%v)", len(reply.Entries), ss.user, reply.Incremental)
	}
	return ss.wc.send(reply)
}
