package protocol

import "fmt"

// Listing message types: the remote-observer half of the watch-mode
// pipeline (internal/watchsync). A client planning a sync round needs
// the server's current view of the namespace — name, size, content
// hash, version, deletion flag per file — so the pure planner can
// reconcile local changes and the confirmed baseline against remote
// reality instead of trusting a possibly stale session cache. One
// ListRequest answers with one Listing; the exchange is metadata
// traffic, the chatter the paper's TUE accounting charges against
// every sync protocol.
//
// The exchange is a change feed: a ListRequest names the cursor of the
// last Listing its sender applied and asks for what changed since it,
// and the Listing names the cursor it brings the client to.
const (
	// TypeListRequest asks for the user's remote file listing.
	TypeListRequest MsgType = iota + 19
	// TypeListing answers a ListRequest with one entry per file the
	// server has ever stored for the user (fake-deleted files included,
	// flagged) — or, answering a feed request incrementally, one per
	// file changed since the request's cursor.
	TypeListing
)

// ListRequest asks for the authenticated user's remote listing.
type ListRequest struct {
	// Epoch and Since are the cursor of the last Listing this client
	// applied, all zeros when it has none yet.
	Epoch uint64
	Since uint64
}

// Type implements Message.
func (*ListRequest) Type() MsgType { return TypeListRequest }

// ListEntry is one file's remote metadata: enough for a planner to
// decide no-op (hash equal), delta (live basis exists), full upload,
// or divergence repair — without downloading any content.
type ListEntry struct {
	FileID  uint64
	Name    string
	Size    int64
	Version uint64
	Deleted bool
	// FileHash is the Sum of the stored raw content (zero for entries
	// whose content predates hash tracking — callers must treat a zero
	// hash as "unknown", never as "matches").
	FileHash Fingerprint
}

// Listing answers a ListRequest, entries sorted by name.
type Listing struct {
	Entries []ListEntry
	// (Epoch, Seq) is the cursor the client holds once it has applied
	// the entries. Incremental entries are only the files changed since
	// the request's cursor, to be upserted into what the client already
	// holds; a non-incremental Listing is the whole namespace.
	Epoch       uint64
	Seq         uint64
	Incremental bool
}

// Type implements Message.
func (*Listing) Type() MsgType { return TypeListing }

// listEntryFixedSize is one Listing entry's bytes beyond its name: ID,
// name prefix, size, version, flags and hash.
const listEntryFixedSize = 8 + 4 + 8 + 8 + 1 + 16

func (m *ListRequest) encodeBody(e *encBuf) {
	e.u64(m.Epoch)
	e.u64(m.Since)
}

func (m *ListRequest) decodeBody(d *decBuf) (err error) {
	if m.Epoch, err = d.u64(); err != nil {
		return err
	}
	m.Since, err = d.u64()
	return err
}

func (m *Listing) encodeBody(e *encBuf) {
	e.u32(uint32(len(m.Entries)))
	for i := range m.Entries {
		en := &m.Entries[i]
		e.u64(en.FileID)
		e.str(en.Name)
		e.i64(en.Size)
		e.u64(en.Version)
		var flags byte
		if en.Deleted {
			flags |= 1
		}
		e.u8(flags)
		e.raw(en.FileHash[:])
	}
	e.u64(m.Epoch)
	e.u64(m.Seq)
	e.bool(m.Incremental)
}

func (m *Listing) decodeBody(d *decBuf) (err error) {
	n, err := d.u32()
	if err != nil {
		return err
	}
	// Every entry costs at least an ID, a name prefix, a size, a
	// version, a flag byte, and a hash; a count that cannot fit in the
	// remaining body is corruption, not a big listing.
	if uint64(n)*listEntryFixedSize > uint64(d.remaining()) {
		return fmt.Errorf("listing entry count %d exceeds body", n)
	}
	m.Entries = make([]ListEntry, n)
	for i := range m.Entries {
		en := &m.Entries[i]
		if en.FileID, err = d.u64(); err != nil {
			return err
		}
		if en.Name, err = d.str(); err != nil {
			return err
		}
		if en.Size, err = d.i64(); err != nil {
			return err
		}
		if en.Version, err = d.u64(); err != nil {
			return err
		}
		flags, err := d.u8()
		if err != nil {
			return err
		}
		en.Deleted = flags&1 != 0
		if err = d.fingerprint(&en.FileHash); err != nil {
			return err
		}
	}
	if m.Epoch, err = d.u64(); err != nil {
		return err
	}
	if m.Seq, err = d.u64(); err != nil {
		return err
	}
	flags, err := d.u8()
	m.Incremental = flags&1 != 0
	return err
}
