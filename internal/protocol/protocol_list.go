package protocol

import "cloudsync/internal/bin"

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
// name prefix, size, version, deleted byte and hash.
const listEntryFixedSize = 8 + 4 + 8 + 8 + 1 + 16

func (m *ListRequest) encodeBody(b []byte) []byte {
	return bin.AppendU64(bin.AppendU64(b, m.Epoch), m.Since)
}

func (m *ListRequest) decodeBody(r *bin.Reader) { m.Epoch, m.Since = r.U64(), r.U64() }

func (m *Listing) encodeBody(b []byte) []byte {
	b = bin.AppendU32(b, uint32(len(m.Entries)))
	for i := range m.Entries {
		en := &m.Entries[i]
		b = bin.AppendU64(bin.AppendStr(bin.AppendU64(b, en.FileID), en.Name), uint64(en.Size))
		b = append(bin.AppendBool(bin.AppendU64(b, en.Version), en.Deleted), en.FileHash[:]...)
	}
	return bin.AppendBool(bin.AppendU64(bin.AppendU64(b, m.Epoch), m.Seq), m.Incremental)
}

func (m *Listing) decodeBody(r *bin.Reader) {
	m.Entries = make([]ListEntry, r.Count(listEntryFixedSize))
	for i := range m.Entries {
		en := &m.Entries[i]
		en.FileID, en.Name, en.Size, en.Version = r.U64(), r.Str(), r.I64(), r.U64()
		en.Deleted, en.FileHash = r.Bool(), r.Bytes16()
	}
	m.Epoch, m.Seq, m.Incremental = r.U64(), r.U64(), r.Bool()
}
