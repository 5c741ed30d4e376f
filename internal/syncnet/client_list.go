package syncnet

import (
	"fmt"
	"slices"
	"strings"

	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
)

// listMirror is the client half of the change feed (see feed.go): the
// account's listing as of the cursor (epoch, seq), sorted by name.
type listMirror struct {
	entries    []protocol.ListEntry
	epoch, seq uint64
}

// apply brings the mirror to the listing's cursor. A full listing
// replaces it. An incremental one is a pure upsert: deletion is fake,
// so within one epoch a name, once listed, is never removed — only
// changed, and a changed file is re-listed whole.
func (lm *listMirror) apply(l *protocol.Listing) {
	lm.epoch, lm.seq = l.Epoch, l.Seq
	if !l.Incremental {
		lm.entries = l.Entries
		return
	}
	byName := func(a, b protocol.ListEntry) int { return strings.Compare(a.Name, b.Name) }
	n := len(lm.entries)
	for _, en := range l.Entries {
		if i, ok := slices.BinarySearchFunc(lm.entries[:n], en, byName); ok {
			lm.entries[i] = en
		} else {
			lm.entries = append(lm.entries, en)
		}
	}
	if len(lm.entries) > n {
		slices.SortFunc(lm.entries, byName)
	}
}

// List returns the user's complete remote listing — one entry per file
// the server has ever stored, fake-deleted files included, sorted by
// name. It is the remote observer of the watch-mode pipeline: the pure
// planner reconciles this listing against the local tree and the
// persisted baseline.
//
// On the wire it is a change feed: the request names the cursor of the
// last listing this client applied, and the server sends only the files
// committed since (or everything, when it cannot honour the cursor).
// The cursor advances only once a reply has decoded, so under a retry
// policy a transport failure simply re-requests from the old one.
//
// As a side effect the client learns the server identity (fileID) and
// liveness of every file the reply carried, so a later Delete or delta
// upload works even for files this client never uploaded — the watch
// daemon restarting with a persisted baseline depends on exactly that.
// A signature the client remembers for a file survives when the listed
// version is the one it describes.
func (c *Client) List() ([]protocol.ListEntry, error) {
	c.op = c.tracer.Start("client.list")
	in0, out0 := c.WireTotals()
	var listing *protocol.Listing
	err := c.withRetry(func(int) error {
		if err := c.wc.send(&protocol.ListRequest{Epoch: c.mirror.epoch, Since: c.mirror.seq}); err != nil {
			return err
		}
		m, err := c.read()
		if err != nil {
			return err
		}
		l, ok := m.(*protocol.Listing)
		if !ok {
			return fmt.Errorf("syncnet: expected listing, got %v", m.Type())
		}
		listing = l
		return nil
	})
	if err == nil {
		c.mirror.apply(listing)
		for i := range listing.Entries {
			en := &listing.Entries[i]
			c.sigs.dropUnless(en.Name, en.Version)
			c.Prime(en.Name, en.FileID, !en.Deleted)
		}
		c.op.Set(obs.Int("entries", int64(len(c.mirror.entries))),
			obs.Bool("incremental", listing.Incremental),
			obs.Int("changed", int64(len(listing.Entries))))
	}
	c.endOp(in0, out0, err)
	if err != nil {
		return nil, err
	}
	return slices.Clone(c.mirror.entries), nil
}

// Prime teaches the client a file's server-side identity without a
// round trip: fileID is the server's handle (required by Delete), and
// live marks whether a stored version currently exists (which routes
// the next Upload through the delta path). The watch-mode executor
// primes each listed file's owner from one shared listing at
// bootstrap, before the owner has synced anything. A signature the
// client holds for the file is kept: it is a guess like any other, and
// the server's version check refuses a delta cut against a superseded
// one.
func (c *Client) Prime(name string, fileID uint64, live bool) {
	c.ids[name] = fileID
	if live {
		c.known[name] = true
	} else {
		delete(c.known, name)
	}
}
