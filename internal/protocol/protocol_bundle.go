package protocol

import "cloudsync/internal/bin"

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

func (m *Bundle) encodeBody(b []byte) []byte {
	b = bin.AppendU32(b, uint32(len(m.Entries)))
	for i := range m.Entries {
		en := &m.Entries[i]
		b = append(bin.AppendU64(bin.AppendStr(b, en.Name), uint64(en.Size)), en.FileHash[:]...)
		b = bin.AppendBytes(b, en.Payload)
	}
	return b
}

func (m *Bundle) decodeBody(r *bin.Reader) {
	m.Entries = make([]BundleEntry, r.Count(SizeBundleEntry("", 0)))
	for i := range m.Entries {
		en := &m.Entries[i]
		en.Name, en.Size, en.FileHash, en.Payload = r.Str(), r.I64(), r.Bytes16(), r.Bytes()
	}
}

// Bundle result flags.
const (
	resultOK       = 1
	resultDedupHit = 2
)

func (m *BundleReply) encodeBody(b []byte) []byte {
	b = bin.AppendU32(b, uint32(len(m.Results)))
	for _, res := range m.Results {
		var flags byte
		if res.OK {
			flags |= resultOK
		}
		if res.DedupHit {
			flags |= resultDedupHit
		}
		b = append(bin.AppendU64(bin.AppendU64(b, res.FileID), res.Version), flags)
	}
	return b
}

func (m *BundleReply) decodeBody(r *bin.Reader) {
	m.Results = make([]BundleResult, r.Count(8+8+1))
	for i := range m.Results {
		res := &m.Results[i]
		res.FileID, res.Version = r.U64(), r.U64()
		flags := r.Flags(resultOK | resultDedupHit)
		res.OK, res.DedupHit = flags&resultOK != 0, flags&resultDedupHit != 0
	}
}

// SizeBundleEntry reports the encoded body bytes one bundle entry with
// the given name and payload length contributes — the analytic
// counterpart the ledger's per-entry segmentation relies on.
func SizeBundleEntry(name string, payloadLen int) int {
	return 4 + len(name) + 8 + 16 + 4 + payloadLen
}
