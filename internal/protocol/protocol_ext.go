package protocol

import "fmt"

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

// SignatureMsg carries an encoded delta.Signature.
type SignatureMsg struct {
	Name    string
	Payload []byte
}

// Type implements Message.
func (*SignatureMsg) Type() MsgType { return TypeSignature }

// DeltaMsg carries an encoded delta.Delta.
type DeltaMsg struct {
	Name    string
	Payload []byte
	// BaseVersion, when non-zero, is a precondition: the delta was cut
	// against the sender's own record of the file at exactly this
	// version, and the receiver applies it only while the file is still
	// there (else ErrConflict). Zero means the delta answers the
	// signature this session was just served. The field is
	// wire-optional like Hello.Caps: omitted when zero, so the
	// unconditional frame is byte-identical to the legacy one.
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

func (m *Get) encodeBody(e *encBuf) { e.str(m.Name) }

func (m *Get) decodeBody(d *decBuf) (err error) {
	m.Name, err = d.str()
	return err
}

func (m *FileInfo) encodeBody(e *encBuf) {
	e.u64(m.FileID)
	e.str(m.Name)
	e.i64(m.Size)
	e.u64(m.Version)
	e.u8(m.Compression)
}

func (m *FileInfo) decodeBody(d *decBuf) (err error) {
	if m.FileID, err = d.u64(); err != nil {
		return err
	}
	if m.Name, err = d.str(); err != nil {
		return err
	}
	if m.Size, err = d.i64(); err != nil {
		return err
	}
	if m.Version, err = d.u64(); err != nil {
		return err
	}
	m.Compression, err = d.u8()
	return err
}

func (m *SigRequest) encodeBody(e *encBuf) {
	e.str(m.Name)
	e.u32(m.BlockSize)
}

func (m *SigRequest) decodeBody(d *decBuf) (err error) {
	if m.Name, err = d.str(); err != nil {
		return err
	}
	m.BlockSize, err = d.u32()
	return err
}

func (m *SignatureMsg) encodeBody(e *encBuf) {
	e.str(m.Name)
	e.blob(m.Payload)
}

func (m *SignatureMsg) decodeBody(d *decBuf) (err error) {
	if m.Name, err = d.str(); err != nil {
		return err
	}
	m.Payload, err = d.blob()
	return err
}

func (m *DeltaMsg) encodeBody(e *encBuf) {
	e.str(m.Name)
	e.blob(m.Payload)
	if m.BaseVersion != 0 {
		e.u64(m.BaseVersion)
	}
}

func (m *DeltaMsg) decodeBody(d *decBuf) (err error) {
	if m.Name, err = d.str(); err != nil {
		return err
	}
	if m.Payload, err = d.blob(); err != nil {
		return err
	}
	m.BaseVersion = 0
	if d.remaining() > 0 {
		m.BaseVersion, err = d.u64()
	}
	return err
}

func (m *Error) encodeBody(e *encBuf) {
	e.u32(m.Code)
	e.str(m.Msg)
}

func (m *Error) decodeBody(d *decBuf) (err error) {
	if m.Code, err = d.u32(); err != nil {
		return err
	}
	m.Msg, err = d.str()
	return err
}

// Error implements the error interface so servers can return it
// directly.
func (m *Error) Error() string {
	return fmt.Sprintf("protocol: remote error %d: %s", m.Code, m.Msg)
}
