package protocol

import "cloudsync/internal/bin"

// Trace-propagation message type: a prefix frame carrying the client's
// trace context, so the server can parent its spans under the client
// operation that caused them. A client sends it only when it opted into
// propagation.
const (
	// TypeTraceCtx sets the session's current trace context. It stays
	// in effect for every subsequent request until replaced by the next
	// TraceCtx. The server absorbs it silently (no reply, no state
	// mutation beyond the session's trace fields).
	TypeTraceCtx MsgType = iota + 21
)

// TraceCtx names the remote parent of the requests that follow it: the
// client tracer's 128-bit identity plus the span ID of the in-flight
// client operation. A client sends one per operation attempt — cheaper
// than a per-message field, and exactly charged to the ledger's
// framing cause since it carries no user payload.
type TraceCtx struct {
	TraceID [16]byte
	SpanID  uint64
}

// Type implements Message.
func (*TraceCtx) Type() MsgType { return TypeTraceCtx }

func (m *TraceCtx) encodeBody(b []byte) []byte {
	return bin.AppendU64(append(b, m.TraceID[:]...), m.SpanID)
}

func (m *TraceCtx) decodeBody(r *bin.Reader) { m.TraceID, m.SpanID = r.Bytes16(), r.U64() }
