package protocol

import (
	"fmt"

	"cloudsync/internal/bin"
)

// Extended message types used by the live sync service (internal/syncnet):
// content retrieval, rsync-style incremental updates, and error
// reporting.
const (
	// TypeGet requests a file's content by name.
	TypeGet MsgType = iota + 9
	// TypeFileInfo announces a file's metadata ahead of its content.
	TypeFileInfo
	// TypeSigRequest asks the server for the rsync signature of its
	// stored version of a file.
	TypeSigRequest
	// TypeSignature carries an encoded delta.Signature.
	TypeSignature
	// TypeDelta carries an encoded delta.Delta to apply to the server's
	// stored version.
	TypeDelta
	// TypeError reports a failure for the preceding request.
	TypeError
)

// Get requests a file's content.
type Get struct {
	Name string
}

// Type implements Message.
func (*Get) Type() MsgType { return TypeGet }

// FileInfo announces file metadata. Compression names the comp.Level
// the following Data payloads are encoded with.
type FileInfo struct {
	FileID      uint64
	Name        string
	Size        int64
	Version     uint64
	Compression uint8
}

// Type implements Message.
func (*FileInfo) Type() MsgType { return TypeFileInfo }

// SigRequest asks for the signature of the server's stored version.
type SigRequest struct {
	Name string
	// BlockSize is the granularity the client wants (0 = server
	// default).
	BlockSize uint32
}

// Type implements Message.
func (*SigRequest) Type() MsgType { return TypeSigRequest }

// SignatureMsg carries an encoded delta.Signature and the version of
// the file it describes: the BaseVersion a delta cut against it names.
type SignatureMsg struct {
	Name    string
	Payload []byte
	Version uint64
}

// Type implements Message.
func (*SignatureMsg) Type() MsgType { return TypeSignature }

// DeltaMsg carries an encoded delta.Delta.
type DeltaMsg struct {
	Name    string
	Payload []byte
	// BaseVersion is the delta's precondition: it was cut against the
	// file at exactly this version — the one a served SignatureMsg
	// carried, or the one the sender's last acknowledged delta left —
	// and the receiver applies it only while the file is still there
	// (else ErrConflict). No file has version 0, so a delta that names
	// none is always refused.
	BaseVersion uint64
}

// Type implements Message.
func (*DeltaMsg) Type() MsgType { return TypeDelta }

// Error reports a failure.
type Error struct {
	Code uint32
	Msg  string
}

// Type implements Message.
func (*Error) Type() MsgType { return TypeError }

// Error codes.
const (
	ErrNotFound uint32 = 1 + iota
	ErrBadRequest
	ErrInternal
	// ErrConflict is a soft refusal: the request was well formed but
	// built on state another session has since replaced (a delta against
	// a superseded file version). The session stays usable; the sender
	// refreshes its view and tries again.
	ErrConflict
)

func (m *Get) encodeBody(b []byte) []byte { return bin.AppendStr(b, m.Name) }

func (m *Get) decodeBody(r *bin.Reader) { m.Name = r.Str() }

func (m *FileInfo) encodeBody(b []byte) []byte {
	b = bin.AppendU64(bin.AppendStr(bin.AppendU64(b, m.FileID), m.Name), uint64(m.Size))
	return append(bin.AppendU64(b, m.Version), m.Compression)
}

func (m *FileInfo) decodeBody(r *bin.Reader) {
	m.FileID, m.Name, m.Size, m.Version, m.Compression = r.U64(), r.Str(), r.I64(), r.U64(), r.U8()
}

func (m *SigRequest) encodeBody(b []byte) []byte {
	return bin.AppendU32(bin.AppendStr(b, m.Name), m.BlockSize)
}

func (m *SigRequest) decodeBody(r *bin.Reader) { m.Name, m.BlockSize = r.Str(), r.U32() }

func (m *SignatureMsg) encodeBody(b []byte) []byte {
	return bin.AppendU64(bin.AppendBytes(bin.AppendStr(b, m.Name), m.Payload), m.Version)
}

func (m *SignatureMsg) decodeBody(r *bin.Reader) {
	m.Name, m.Payload, m.Version = r.Str(), r.Bytes(), r.U64()
}

func (m *DeltaMsg) encodeBody(b []byte) []byte {
	return bin.AppendU64(bin.AppendBytes(bin.AppendStr(b, m.Name), m.Payload), m.BaseVersion)
}

func (m *DeltaMsg) decodeBody(r *bin.Reader) {
	m.Name, m.Payload, m.BaseVersion = r.Str(), r.Bytes(), r.U64()
}

func (m *Error) encodeBody(b []byte) []byte { return bin.AppendStr(bin.AppendU32(b, m.Code), m.Msg) }

func (m *Error) decodeBody(r *bin.Reader) { m.Code, m.Msg = r.U32(), r.Str() }

// Error implements the error interface so servers can return it
// directly.
func (m *Error) Error() string {
	return fmt.Sprintf("protocol: remote error %d: %s", m.Code, m.Msg)
}
