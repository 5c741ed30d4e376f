// Package protocol defines the sync-protocol messages a cloud storage
// client and server exchange, with a compact binary encoding.
//
// The simulator mostly needs message *sizes* — they are the application
// payload the wire model frames — but the codec is real: every message
// round-trips through Encode/Decode, so the protocol could serve an
// actual client/server implementation over net.Conn. Message layout is
// a type byte, a uint32 body length, and a fixed-order body using
// little-endian integers and length-prefixed strings.
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
	// encodeBody appends the body encoding.
	encodeBody(*encBuf)
	// decodeBody parses the body encoding.
	decodeBody(*decBuf) error
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

// encBuf is the append-only encoding buffer. All writes are direct
// appends — no interface calls, no reflection — so encoding into a
// pre-sized buffer performs zero allocations.
type encBuf struct{ b []byte }

func (e *encBuf) u8(v byte)    { e.b = append(e.b, v) }
func (e *encBuf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encBuf) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encBuf) i64(v int64)  { e.u64(uint64(v)) }
func (e *encBuf) raw(p []byte) { e.b = append(e.b, p...) }
func (e *encBuf) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encBuf) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *encBuf) blob(p []byte) {
	e.u32(uint32(len(p)))
	e.raw(p)
}

// decBuf consumes an encoded body front to back by slicing in place.
// Variable-length fields that outlive the frame (strings, payloads)
// are copied out; everything else is read without allocating.
type decBuf struct{ b []byte }

var errShort = fmt.Errorf("truncated body")

func (d *decBuf) remaining() int { return len(d.b) }

func (d *decBuf) u8() (byte, error) {
	if len(d.b) < 1 {
		return 0, errShort
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *decBuf) u32() (uint32, error) {
	if len(d.b) < 4 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v, nil
}

func (d *decBuf) u64() (uint64, error) {
	if len(d.b) < 8 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

func (d *decBuf) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

func (d *decBuf) bool() (bool, error) {
	v, err := d.u8()
	return v == 1, err
}

func (d *decBuf) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if uint64(n) > uint64(len(d.b)) {
		return "", fmt.Errorf("string length %d exceeds %d remaining", n, len(d.b))
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

// blob reads a uint32-length-prefixed byte slice, copying it out so the
// result survives reuse of the frame buffer.
func (d *decBuf) blob() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(d.b)) {
		return nil, fmt.Errorf("payload length %d exceeds body", n)
	}
	p := make([]byte, n)
	copy(p, d.b[:n])
	d.b = d.b[n:]
	return p, nil
}

func (d *decBuf) fingerprint(fp *Fingerprint) error {
	if len(d.b) < FingerprintSize {
		return errShort
	}
	copy(fp[:], d.b[:FingerprintSize])
	d.b = d.b[FingerprintSize:]
	return nil
}

// encPool recycles the encoder header: &e passed to the encodeBody
// interface method escapes (the callee is unknown to escape analysis),
// which would cost one small heap allocation per encoded message on the
// live path. Pooling makes AppendEncode allocation-free steady-state.
var encPool = sync.Pool{New: func() any { return new(encBuf) }}

// AppendEncode appends m's full frame (type byte, uint32 body length,
// body) to dst and returns the extended slice. With a dst of adequate
// capacity it performs no allocations — the live path's send buffers
// are pooled and reused across messages.
func AppendEncode(dst []byte, m Message) []byte {
	e := encPool.Get().(*encBuf)
	e.b = append(dst, byte(m.Type()), 0, 0, 0, 0)
	start := len(e.b)
	m.encodeBody(e)
	binary.LittleEndian.PutUint32(e.b[start-4:start], uint32(len(e.b)-start))
	out := e.b
	e.b = nil
	encPool.Put(e)
	return out
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
	e := encBuf{dst}
	e.u64(fileID)
	e.i64(offset)
	e.u32(uint32(payloadLen))
	binary.LittleEndian.PutUint32(e.b[start-4:start], uint32(len(e.b)-start+payloadLen))
	return e.b
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
	// Pooled for the same reason as encPool: &d escapes through the
	// decodeBody interface call, and the live path decodes per message.
	d := decPool.Get().(*decBuf)
	d.b = data[frameHeader:]
	err := m.decodeBody(d)
	rest := d.remaining()
	d.b = nil
	decPool.Put(d)
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding %v: %w", t, err)
	}
	if rest != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after %v", rest, t)
	}
	return m, nil
}

var decPool = sync.Pool{New: func() any { return new(decBuf) }}

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

func (m *Hello) encodeBody(e *encBuf) {
	e.str(m.User)
	e.str(m.Device)
	e.str(m.Version)
}

func (m *Hello) decodeBody(d *decBuf) (err error) {
	if m.User, err = d.str(); err != nil {
		return err
	}
	if m.Device, err = d.str(); err != nil {
		return err
	}
	m.Version, err = d.str()
	return err
}

func (m *IndexUpdate) encodeBody(e *encBuf) {
	e.u64(m.FileID)
	e.str(m.Name)
	e.i64(m.Size)
	e.raw(m.FileHash[:])
	e.u32(m.BlockSize)
	e.u32(uint32(len(m.BlockHashes)))
	for _, h := range m.BlockHashes {
		e.raw(h[:])
	}
}

func (m *IndexUpdate) decodeBody(d *decBuf) (err error) {
	if m.FileID, err = d.u64(); err != nil {
		return err
	}
	if m.Name, err = d.str(); err != nil {
		return err
	}
	if m.Size, err = d.i64(); err != nil {
		return err
	}
	if err = d.fingerprint(&m.FileHash); err != nil {
		return err
	}
	if m.BlockSize, err = d.u32(); err != nil {
		return err
	}
	n, err := d.u32()
	if err != nil {
		return err
	}
	if uint64(n)*FingerprintSize > uint64(d.remaining()) {
		return fmt.Errorf("block hash count %d exceeds body", n)
	}
	m.BlockHashes = make([]Fingerprint, n)
	for i := range m.BlockHashes {
		if err = d.fingerprint(&m.BlockHashes[i]); err != nil {
			return err
		}
	}
	return nil
}

func (m *IndexReply) encodeBody(e *encBuf) {
	e.u64(m.FileID)
	e.bool(m.DedupHit)
	e.u32(uint32(len(m.NeedBlocks)))
	for _, idx := range m.NeedBlocks {
		e.u32(idx)
	}
}

func (m *IndexReply) decodeBody(d *decBuf) (err error) {
	if m.FileID, err = d.u64(); err != nil {
		return err
	}
	if m.DedupHit, err = d.bool(); err != nil {
		return err
	}
	n, err := d.u32()
	if err != nil {
		return err
	}
	if uint64(n)*4 > uint64(d.remaining()) {
		return fmt.Errorf("need-block count %d exceeds body", n)
	}
	m.NeedBlocks = make([]uint32, n)
	for i := range m.NeedBlocks {
		if m.NeedBlocks[i], err = d.u32(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Data) encodeBody(e *encBuf) {
	e.u64(m.FileID)
	e.i64(m.Offset)
	e.blob(m.Payload)
}

func (m *Data) decodeBody(d *decBuf) (err error) {
	if m.FileID, err = d.u64(); err != nil {
		return err
	}
	if m.Offset, err = d.i64(); err != nil {
		return err
	}
	m.Payload, err = d.blob()
	return err
}

func (m *Commit) encodeBody(e *encBuf) {
	e.u64(m.FileID)
	e.u64(m.Version)
}

func (m *Commit) decodeBody(d *decBuf) (err error) {
	if m.FileID, err = d.u64(); err != nil {
		return err
	}
	m.Version, err = d.u64()
	return err
}

func (m *Ack) encodeBody(e *encBuf) {
	e.u64(m.FileID)
	e.u64(m.Version)
	e.bool(m.OK)
}

func (m *Ack) decodeBody(d *decBuf) (err error) {
	if m.FileID, err = d.u64(); err != nil {
		return err
	}
	if m.Version, err = d.u64(); err != nil {
		return err
	}
	m.OK, err = d.bool()
	return err
}

func (m *Notify) encodeBody(e *encBuf) {
	e.u64(m.FileID)
	e.u64(m.Version)
	e.str(m.Name)
}

func (m *Notify) decodeBody(d *decBuf) (err error) {
	if m.FileID, err = d.u64(); err != nil {
		return err
	}
	if m.Version, err = d.u64(); err != nil {
		return err
	}
	m.Name, err = d.str()
	return err
}

func (m *Delete) encodeBody(e *encBuf) {
	e.u64(m.FileID)
}

func (m *Delete) decodeBody(d *decBuf) (err error) {
	m.FileID, err = d.u64()
	return err
}
