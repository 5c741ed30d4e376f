package syncnet

import (
	"fmt"

	"cloudsync/internal/protocol"
)

// List fetches the user's complete remote listing — one entry per file
// the server has ever stored, fake-deleted files included. It is the
// remote observer of the watch-mode pipeline: the pure planner
// reconciles this listing against the local tree and the persisted
// baseline. Listing is idempotent, so under a retry policy a transport
// failure simply re-requests it.
//
// As a side effect the client learns every live file's server identity
// (fileID), so a later Delete or delta upload works even for files
// this client never uploaded — the watch daemon restarting with a
// persisted baseline depends on exactly that.
func (c *Client) List() ([]protocol.ListEntry, error) {
	c.op = c.tracer.Start("client.list")
	in0, out0 := c.wireIn, c.wireOut
	var entries []protocol.ListEntry
	err := c.withRetry(func(int) error {
		if err := c.send(&protocol.ListRequest{}); err != nil {
			return err
		}
		m, err := c.read()
		if err != nil {
			return err
		}
		listing, ok := m.(*protocol.Listing)
		if !ok {
			return fmt.Errorf("syncnet: expected listing, got %v", m.Type())
		}
		entries = listing.Entries
		return nil
	})
	c.op.Set("entries", len(entries))
	c.endOp(in0, out0, err)
	if err != nil {
		return nil, err
	}
	for i := range entries {
		en := &entries[i]
		c.Prime(en.Name, en.FileID, !en.Deleted)
	}
	return entries, nil
}

// FileID reports the server-side identity this client has learned for
// name (via upload, download, listing, or priming). The watch-mode
// executor uses it to propagate identities from the worker that
// performed an upload to its siblings.
func (c *Client) FileID(name string) (uint64, bool) {
	id, ok := c.ids[name]
	return id, ok
}

// Prime teaches the client a file's server-side identity without a
// round trip: fileID is the server's handle (required by Delete), and
// live marks whether a stored version currently exists (which routes
// the next Upload through the delta path). The watch-mode executor
// primes its worker clients from one shared listing so that any worker
// can delta-update or delete any file, regardless of which client
// originally uploaded it. What the client is told this way happened
// outside its own exchanges, so a signature it remembers for the file
// may describe a superseded version and is forgotten.
func (c *Client) Prime(name string, fileID uint64, live bool) {
	c.sigs.drop(name)
	c.ids[name] = fileID
	if live {
		c.known[name] = true
	} else {
		delete(c.known, name)
	}
}
