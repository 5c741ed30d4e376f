// Package protocol defines the sync-protocol messages a cloud storage
// client and server exchange, with a compact binary encoding.
//
// The simulator mostly needs message *sizes* — they are the application
// payload the wire model frames — but the codec is real: every message
// round-trips through Encode/Decode, so the protocol could serve an
// actual client/server implementation over net.Conn. Message layout is
// a type byte, a uint32 body length, and a fixed-order body of
// internal/bin values: little-endian integers, bool and flag bytes,
// length-prefixed strings. Each message has exactly one encoding.
//
// The codec is allocation-lean by design: encoding appends into a
// caller-supplied buffer (AppendEncode) and decoding slices a byte
// buffer in place, so the live path (internal/syncnet) can frame
// messages through pooled buffers with zero steady-state garbage.
// Only fields that outlive the frame — payload slices, strings —
// are copied out.
package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"cloudsync/internal/bin"
)

// MsgType identifies a message.
type MsgType uint8

const (
	// TypeHello opens a session: client identity.
	TypeHello MsgType = iota + 1
	// TypeIndexUpdate announces a file version: metadata plus content
	// fingerprints (the "data index" of Fig. 1).
	TypeIndexUpdate
	// TypeIndexReply tells the client what the cloud still needs:
	// nothing (dedup hit), specific blocks, or the full content.
	TypeIndexReply
	// TypeData carries file content bytes (possibly compressed).
	TypeData
	// TypeCommit asks the cloud to finalize a version.
	TypeCommit
	// TypeAck confirms a commit or delete.
	TypeAck
	// TypeNotify is a server push informing other devices of a change.
	TypeNotify
	// TypeDelete requests a (fake) deletion.
	TypeDelete
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeIndexUpdate:
		return "index-update"
	case TypeIndexReply:
		return "index-reply"
	case TypeData:
		return "data"
	case TypeCommit:
		return "commit"
	case TypeAck:
		return "ack"
	case TypeNotify:
		return "notify"
	case TypeDelete:
		return "delete"
	case TypeGet:
		return "get"
	case TypeFileInfo:
		return "file-info"
	case TypeSigRequest:
		return "sig-request"
	case TypeSignature:
		return "signature"
	case TypeDelta:
		return "delta"
	case TypeError:
		return "error"
	case TypeResumeQuery:
		return "resume-query"
	case TypeResumeInfo:
		return "resume-info"
	case TypeBundle:
		return "bundle"
	case TypeBundleReply:
		return "bundle-reply"
	case TypeListRequest:
		return "list-request"
	case TypeListing:
		return "listing"
	case TypeTraceCtx:
		return "trace-ctx"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	Type() MsgType
	// encodeBody appends the body encoding to b.
	encodeBody(b []byte) []byte
	// decodeBody parses the body encoding; Decode checks r once after.
	decodeBody(r *bin.Reader)
}

// FingerprintSize is the length of a Fingerprint on the wire.
const FingerprintSize = 16

// Hello opens a session.
type Hello struct {
	User    string
	Device  string
	Version string
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

// IndexUpdate announces one file version.
type IndexUpdate struct {
	FileID   uint64
	Name     string
	Size     int64
	FileHash Fingerprint
	// BlockSize is the dedup block granularity of BlockHashes (0 when
	// only the full-file hash is sent).
	BlockSize   uint32
	BlockHashes []Fingerprint
}

// Type implements Message.
func (*IndexUpdate) Type() MsgType { return TypeIndexUpdate }

// IndexReply answers an IndexUpdate.
type IndexReply struct {
	FileID uint64
	// DedupHit means the cloud already has the full content; no data
	// transfer needed.
	DedupHit bool
	// NeedBlocks lists block indices the cloud is missing (block-level
	// dedup); empty with DedupHit false means send everything.
	NeedBlocks []uint32
}

// Type implements Message.
func (*IndexReply) Type() MsgType { return TypeIndexReply }

// Data carries content bytes.
type Data struct {
	FileID  uint64
	Offset  int64
	Payload []byte
}

// Type implements Message.
func (*Data) Type() MsgType { return TypeData }

// Commit finalizes a version.
type Commit struct {
	FileID  uint64
	Version uint64
}

// Type implements Message.
func (*Commit) Type() MsgType { return TypeCommit }

// Ack confirms an operation.
type Ack struct {
	FileID  uint64
	Version uint64
	OK      bool
}

// Type implements Message.
func (*Ack) Type() MsgType { return TypeAck }

// Notify informs a device that a file changed elsewhere.
type Notify struct {
	FileID  uint64
	Version uint64
	Name    string
}

// Type implements Message.
func (*Notify) Type() MsgType { return TypeNotify }

// Delete requests a fake deletion.
type Delete struct {
	FileID uint64
}

// Type implements Message.
func (*Delete) Type() MsgType { return TypeDelete }

// --- framing ---

// frameHeader is the per-message envelope: type byte + uint32 body
// length.
const frameHeader = 5

// AppendEncode appends m's full frame (type byte, uint32 body length,
// body) to dst and returns the extended slice. With a dst of adequate
// capacity it performs no allocations — the live path's send buffers
// are pooled and reused across messages.
func AppendEncode(dst []byte, m Message) []byte {
	dst = append(dst, byte(m.Type()), 0, 0, 0, 0)
	start := len(dst)
	dst = m.encodeBody(dst)
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// Encode serializes a message: type byte, uint32 body length, body.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, frameHeader+16), m)
}

// AppendDataHeader appends the frame header and fixed body prefix of a
// Data message whose payload will be written separately: the returned
// header followed by payloadLen payload bytes is byte-for-byte the
// AppendEncode of the equivalent Data message. This is the vectored
// send path — the ~25-byte header comes from a pooled scratch and the
// payload slice goes to the connection directly, so content is never
// copied into a frame buffer.
func AppendDataHeader(dst []byte, fileID uint64, offset int64, payloadLen int) []byte {
	dst = append(dst, byte(TypeData), 0, 0, 0, 0)
	start := len(dst)
	dst = bin.AppendU32(bin.AppendU64(bin.AppendU64(dst, fileID), uint64(offset)), uint32(payloadLen))
	binary.LittleEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start+payloadLen))
	return dst
}

var sizeScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// EncodedSize reports len(Encode(m)) without retaining the encoding —
// the hot path for the simulator's traffic accounting goes through the
// analytic Size* helpers instead, but callers composing novel messages
// still need the measured figure.
func EncodedSize(m Message) int {
	bp := sizeScratch.Get().(*[]byte)
	b := AppendEncode((*bp)[:0], m)
	n := len(b)
	*bp = b[:0]
	sizeScratch.Put(bp)
	return n
}

// newMessage returns the empty message struct for a type byte.
func newMessage(t MsgType) (Message, bool) {
	switch t {
	case TypeHello:
		return &Hello{}, true
	case TypeIndexUpdate:
		return &IndexUpdate{}, true
	case TypeIndexReply:
		return &IndexReply{}, true
	case TypeData:
		return &Data{}, true
	case TypeCommit:
		return &Commit{}, true
	case TypeAck:
		return &Ack{}, true
	case TypeNotify:
		return &Notify{}, true
	case TypeDelete:
		return &Delete{}, true
	case TypeGet:
		return &Get{}, true
	case TypeFileInfo:
		return &FileInfo{}, true
	case TypeSigRequest:
		return &SigRequest{}, true
	case TypeSignature:
		return &SignatureMsg{}, true
	case TypeDelta:
		return &DeltaMsg{}, true
	case TypeError:
		return &Error{}, true
	case TypeResumeQuery:
		return &ResumeQuery{}, true
	case TypeResumeInfo:
		return &ResumeInfo{}, true
	case TypeBundle:
		return &Bundle{}, true
	case TypeBundleReply:
		return &BundleReply{}, true
	case TypeListRequest:
		return &ListRequest{}, true
	case TypeListing:
		return &Listing{}, true
	case TypeTraceCtx:
		return &TraceCtx{}, true
	default:
		return nil, false
	}
}

// Decode parses one encoded message.
func Decode(data []byte) (Message, error) {
	if len(data) < frameHeader {
		return nil, fmt.Errorf("protocol: short message (%d bytes)", len(data))
	}
	t := MsgType(data[0])
	n := binary.LittleEndian.Uint32(data[1:5])
	if int(n) != len(data)-frameHeader {
		return nil, fmt.Errorf("protocol: body length %d does not match %d remaining bytes", n, len(data)-frameHeader)
	}
	m, ok := newMessage(t)
	if !ok {
		return nil, fmt.Errorf("protocol: unknown message type %d", t)
	}
	r := readers.Get().(*bin.Reader)
	*r = bin.NewReader(data[frameHeader:])
	m.decodeBody(r)
	err := r.End()
	*r = bin.Reader{}
	readers.Put(r)
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding %v: %w", t, err)
	}
	return m, nil
}

// readers recycles Decode's cursor: a pointer passed to the decodeBody
// interface call escapes (the callee is unknown to escape analysis), so
// an unpooled cursor would cost a heap allocation per decoded message.
var readers = sync.Pool{New: func() any { return new(bin.Reader) }}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (Message, error) {
	m, _, err := ReadMessageBuf(r, nil)
	return m, err
}

// ReadMessageBuf reads one framed message from r through buf, growing
// it as needed, and returns the (possibly re-allocated) buffer for the
// caller to reuse on the next read. Decoded messages copy out any
// fields that reference the frame, so the buffer is free for reuse the
// moment ReadMessageBuf returns — a session that recycles its read
// buffer pays each growth once per *session*, not per message (plus the
// unavoidable copies of payload-bearing fields).
//
// The buffer grows by doubling, and only once the bytes already read
// fill it: a frame's length word alone cannot buy an allocation, and
// the buffer never exceeds twice the bytes actually received (or 4 KiB).
func ReadMessageBuf(r io.Reader, buf []byte) (Message, []byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, 0, 4096)
	}
	buf = buf[:frameHeader]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	total := frameHeader + int(binary.LittleEndian.Uint32(buf[1:5]))
	for len(buf) < total {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*cap(buf), total))
			copy(grown, buf)
			buf = grown
		}
		n, err := io.ReadFull(r, buf[len(buf):min(total, cap(buf))])
		buf = buf[:len(buf)+n]
		if err == io.EOF && len(buf) > frameHeader {
			err = io.ErrUnexpectedEOF // the stream ended between two chunks
		}
		if err != nil {
			return nil, buf, fmt.Errorf("protocol: reading body: %w", err)
		}
	}
	m, err := Decode(buf)
	return m, buf, err
}

// --- body encodings ---

func (m *Hello) encodeBody(b []byte) []byte {
	return bin.AppendStr(bin.AppendStr(bin.AppendStr(b, m.User), m.Device), m.Version)
}

func (m *Hello) decodeBody(r *bin.Reader) {
	m.User, m.Device, m.Version = r.Str(), r.Str(), r.Str()
}

func (m *IndexUpdate) encodeBody(b []byte) []byte {
	b = bin.AppendU64(bin.AppendStr(bin.AppendU64(b, m.FileID), m.Name), uint64(m.Size))
	b = bin.AppendU32(bin.AppendU32(append(b, m.FileHash[:]...), m.BlockSize), uint32(len(m.BlockHashes)))
	for _, h := range m.BlockHashes {
		b = append(b, h[:]...)
	}
	return b
}

func (m *IndexUpdate) decodeBody(r *bin.Reader) {
	m.FileID, m.Name, m.Size, m.FileHash, m.BlockSize = r.U64(), r.Str(), r.I64(), r.Bytes16(), r.U32()
	m.BlockHashes = make([]Fingerprint, r.Count(FingerprintSize))
	for i := range m.BlockHashes {
		m.BlockHashes[i] = r.Bytes16()
	}
}

func (m *IndexReply) encodeBody(b []byte) []byte {
	b = bin.AppendU32(bin.AppendBool(bin.AppendU64(b, m.FileID), m.DedupHit), uint32(len(m.NeedBlocks)))
	for _, idx := range m.NeedBlocks {
		b = bin.AppendU32(b, idx)
	}
	return b
}

func (m *IndexReply) decodeBody(r *bin.Reader) {
	m.FileID, m.DedupHit = r.U64(), r.Bool()
	m.NeedBlocks = make([]uint32, r.Count(4))
	for i := range m.NeedBlocks {
		m.NeedBlocks[i] = r.U32()
	}
}

func (m *Data) encodeBody(b []byte) []byte {
	return bin.AppendBytes(bin.AppendU64(bin.AppendU64(b, m.FileID), uint64(m.Offset)), m.Payload)
}

func (m *Data) decodeBody(r *bin.Reader) {
	m.FileID, m.Offset, m.Payload = r.U64(), r.I64(), r.Bytes()
}

func (m *Commit) encodeBody(b []byte) []byte {
	return bin.AppendU64(bin.AppendU64(b, m.FileID), m.Version)
}

func (m *Commit) decodeBody(r *bin.Reader) { m.FileID, m.Version = r.U64(), r.U64() }

func (m *Ack) encodeBody(b []byte) []byte {
	return bin.AppendBool(bin.AppendU64(bin.AppendU64(b, m.FileID), m.Version), m.OK)
}

func (m *Ack) decodeBody(r *bin.Reader) { m.FileID, m.Version, m.OK = r.U64(), r.U64(), r.Bool() }

func (m *Notify) encodeBody(b []byte) []byte {
	return bin.AppendStr(bin.AppendU64(bin.AppendU64(b, m.FileID), m.Version), m.Name)
}

func (m *Notify) decodeBody(r *bin.Reader) { m.FileID, m.Version, m.Name = r.U64(), r.U64(), r.Str() }

func (m *Delete) encodeBody(b []byte) []byte { return bin.AppendU64(b, m.FileID) }

func (m *Delete) decodeBody(r *bin.Reader) { m.FileID = r.U64() }
