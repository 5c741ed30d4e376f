package protocol

import "fmt"

// Bundle message types: the paper's batching remedy applied to the live
// protocol. A session full of tiny uploads pays one full request
// exchange per file in lockstep mode; a Bundle coalesces N small
// uploads into a single framed message the server demultiplexes and
// commits per-file, answering all of them with one BundleReply. One
// frame header and one round trip amortize across the whole batch.
const (
	// TypeBundle carries N small full-file uploads in one frame.
	TypeBundle MsgType = iota + 17
	// TypeBundleReply answers a Bundle with one result per entry, in
	// entry order.
	TypeBundleReply
)

// BundleEntry is one small file inside a Bundle: the same identity an
// IndexUpdate announces (name, raw size, content hash) plus the content
// payload (compressed with the session's comp.Level). The payload rides
// along unconditionally — for files small enough to bundle, probing for
// a dedup hit first would cost the round trip bundling exists to save;
// the server still detects the hit from the hash and simply discards
// the redundant payload.
type BundleEntry struct {
	Name     string
	Size     int64
	FileHash Fingerprint
	Payload  []byte
}

// Bundle coalesces N small full-file uploads into one framed exchange.
type Bundle struct {
	Entries []BundleEntry
}

// Type implements Message.
func (*Bundle) Type() MsgType { return TypeBundle }

// BundleResult reports one entry's commit outcome.
type BundleResult struct {
	FileID   uint64
	Version  uint64
	DedupHit bool
	// OK is false when this entry was rejected (size or hash mismatch,
	// undecodable content); the rest of the bundle still commits.
	OK bool
}

// BundleReply answers a Bundle, one result per entry in entry order.
type BundleReply struct {
	Results []BundleResult
}

// Type implements Message.
func (*BundleReply) Type() MsgType { return TypeBundleReply }

func (m *Bundle) encodeBody(e *encBuf) {
	e.u32(uint32(len(m.Entries)))
	for i := range m.Entries {
		en := &m.Entries[i]
		e.str(en.Name)
		e.i64(en.Size)
		e.raw(en.FileHash[:])
		e.blob(en.Payload)
	}
}

func (m *Bundle) decodeBody(d *decBuf) (err error) {
	n, err := d.u32()
	if err != nil {
		return err
	}
	// Every entry costs at least a name prefix, size, hash, and payload
	// prefix; a count that cannot fit is corruption, not a big bundle.
	if uint64(n)*(4+8+16+4) > uint64(d.remaining()) {
		return fmt.Errorf("bundle entry count %d exceeds body", n)
	}
	m.Entries = make([]BundleEntry, n)
	for i := range m.Entries {
		en := &m.Entries[i]
		if en.Name, err = d.str(); err != nil {
			return err
		}
		if en.Size, err = d.i64(); err != nil {
			return err
		}
		if err = d.fingerprint(&en.FileHash); err != nil {
			return err
		}
		if en.Payload, err = d.blob(); err != nil {
			return err
		}
	}
	return nil
}

func (m *BundleReply) encodeBody(e *encBuf) {
	e.u32(uint32(len(m.Results)))
	for _, r := range m.Results {
		e.u64(r.FileID)
		e.u64(r.Version)
		var flags byte
		if r.OK {
			flags |= 1
		}
		if r.DedupHit {
			flags |= 2
		}
		e.u8(flags)
	}
}

func (m *BundleReply) decodeBody(d *decBuf) (err error) {
	n, err := d.u32()
	if err != nil {
		return err
	}
	if uint64(n)*(8+8+1) > uint64(d.remaining()) {
		return fmt.Errorf("bundle result count %d exceeds body", n)
	}
	m.Results = make([]BundleResult, n)
	for i := range m.Results {
		r := &m.Results[i]
		if r.FileID, err = d.u64(); err != nil {
			return err
		}
		if r.Version, err = d.u64(); err != nil {
			return err
		}
		flags, err := d.u8()
		if err != nil {
			return err
		}
		r.OK = flags&1 != 0
		r.DedupHit = flags&2 != 0
	}
	return nil
}

// SizeBundleEntry reports the encoded body bytes one bundle entry with
// the given name and payload length contributes — the analytic
// counterpart the ledger's per-entry segmentation relies on.
func SizeBundleEntry(name string, payloadLen int) int {
	return 4 + len(name) + 8 + 16 + 4 + payloadLen
}
