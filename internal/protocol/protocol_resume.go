package protocol

import "cloudsync/internal/bin"

// Resume message types: after a connection failure mid-upload, a client
// asks the server how much of the interrupted transfer it already holds
// so only the unacknowledged tail is re-sent.
const (
	// TypeResumeQuery asks whether the server holds a partial upload
	// matching the given identity.
	TypeResumeQuery MsgType = iota + 15
	// TypeResumeInfo answers a ResumeQuery with the byte offset the
	// client should continue from.
	TypeResumeInfo
)

// ResumeQuery identifies an interrupted upload by the same triple the
// server stashes partial buffers under: name, final size, and content
// hash. The hash guards against resuming onto a buffer from an older
// edit of the same file.
type ResumeQuery struct {
	Name     string
	Size     int64
	FileHash Fingerprint
}

// Type implements Message.
func (*ResumeQuery) Type() MsgType { return TypeResumeQuery }

// ResumeInfo reports the server's progress on a partial upload. Offset
// is the number of payload bytes already durably received (0 when the
// server holds nothing — the client starts over). FileID is the upload
// handle the continuation Data messages must carry.
type ResumeInfo struct {
	FileID uint64
	Offset int64
}

// Type implements Message.
func (*ResumeInfo) Type() MsgType { return TypeResumeInfo }

func (m *ResumeQuery) encodeBody(b []byte) []byte {
	return append(bin.AppendU64(bin.AppendStr(b, m.Name), uint64(m.Size)), m.FileHash[:]...)
}

func (m *ResumeQuery) decodeBody(r *bin.Reader) {
	m.Name, m.Size, m.FileHash = r.Str(), r.I64(), r.Bytes16()
}

func (m *ResumeInfo) encodeBody(b []byte) []byte {
	return bin.AppendU64(bin.AppendU64(b, m.FileID), uint64(m.Offset))
}

func (m *ResumeInfo) decodeBody(r *bin.Reader) { m.FileID, m.Offset = r.U64(), r.I64() }
