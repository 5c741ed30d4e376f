package syncnet

import (
	"crypto/md5"

	"cloudsync/internal/delta"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// This file is the live path's per-byte traffic attribution: it lays
// every encoded protocol message out as an ordered list of
// (cause, length) segments and charges them against the bytes that
// actually crossed the connection. Charging by the measured byte count
// — not by the message's encoded size — is what keeps the ledger total
// exactly equal to the wire total even when a fault scheduler cuts the
// connection mid-write: the clipped tail is simply never charged, and
// the session's residual (bytes metered but never attributed, e.g.
// partial frames on either side of a cut) is swept into framing when
// the session ends.

// frameHeaderSize is the per-message envelope: 1 type byte + uint32
// body length.
const frameHeaderSize = 5

// causeSeg is one contiguous run of wire bytes with a single cause.
type causeSeg struct {
	cause ledger.Cause
	n     int64
}

// messageSegments appends one encoded message's layout (total bytes
// including the frame header) to dst as attribution segments, by
// message semantics:
//
//	frame header                 → framing
//	Data: fileID/offset/len      → framing; payload → payload
//	IndexUpdate: fingerprints    → dedup_probe; rest → metadata
//	SignatureMsg body            → dedup_probe (block fingerprints)
//	DeltaMsg: literal op data    → delta_literal; version
//	        precondition         → metadata; rest → delta_copyref
//	ResumeQuery / ResumeInfo     → resume
//	TraceCtx                     → framing (pure protocol overhead)
//	Bundle: per entry name/size  → metadata; hash → dedup_probe;
//	        length prefixes      → framing; content → payload
//	everything else              → metadata
//
// Appending into a caller-held scratch keeps attribution off the
// allocator on the live path. Segment order approximates wire order;
// when a write is cut short the clipping is therefore approximately
// positional, and always exact in total.
func messageSegments(dst []causeSeg, m protocol.Message, total int64) []causeSeg {
	body := total - frameHeaderSize
	if body < 0 {
		return append(dst, causeSeg{ledger.Framing, total})
	}
	if d, ok := m.(*protocol.Data); ok {
		return appendDataSegments(dst, total, int64(len(d.Payload)))
	}
	dst = append(dst, causeSeg{ledger.Framing, frameHeaderSize})
	switch v := m.(type) {
	case *protocol.IndexUpdate:
		probe := int64(md5.Size) * int64(1+len(v.BlockHashes))
		if probe > body {
			probe = body
		}
		dst = append(dst, causeSeg{ledger.Metadata, body - probe}, causeSeg{ledger.DedupProbe, probe})
	case *protocol.SignatureMsg:
		dst = append(dst, causeSeg{ledger.DedupProbe, body})
	case *protocol.DeltaMsg:
		lit, err := delta.EncodedLiteralBytes(v.Payload)
		if err != nil || lit > int64(len(v.Payload)) {
			lit = 0
		}
		// The trailing BaseVersion, when present, is what the sender
		// knows about the file, not part of the delta.
		var cond int64
		if v.BaseVersion != 0 {
			cond = 8
		}
		dst = append(dst,
			causeSeg{ledger.DeltaCopyRef, body - lit - cond},
			causeSeg{ledger.DeltaLiteral, lit},
			causeSeg{ledger.Metadata, cond})
	case *protocol.ResumeQuery, *protocol.ResumeInfo:
		dst = append(dst, causeSeg{ledger.Resume, body})
	case *protocol.TraceCtx:
		// Trace propagation is protocol overhead, not user data: the
		// whole frame is framing (retagRetransmit also leaves framing
		// untouched, so a re-sent context stays framing on retry).
		dst = append(dst, causeSeg{ledger.Framing, body})
	case *protocol.Bundle:
		// Entry-count prefix, then per entry: the identity a lone
		// IndexUpdate would carry (name+size → metadata, full-file hash →
		// dedup probe), the payload length prefix (framing, same as a
		// Data message's envelope), and the content itself.
		dst = append(dst, causeSeg{ledger.Framing, 4})
		rest := body - 4
		for i := range v.Entries {
			en := &v.Entries[i]
			meta := int64(4 + len(en.Name) + 8)
			dst = append(dst,
				causeSeg{ledger.Metadata, meta},
				causeSeg{ledger.DedupProbe, md5.Size},
				causeSeg{ledger.Framing, 4},
				causeSeg{ledger.Payload, int64(len(en.Payload))})
			rest -= meta + md5.Size + 4 + int64(len(en.Payload))
		}
		if rest > 0 {
			// Entry layout fell short of the body length — impossible for
			// a well-formed frame, but the exact-total contract must
			// survive an accounting bug.
			dst = append(dst, causeSeg{ledger.Framing, rest})
		}
	default:
		dst = append(dst, causeSeg{ledger.Metadata, body})
	}
	return dst
}

// appendDataSegments lays out a Data-message frame of total wire bytes
// whose trailing payloadLen bytes are content: everything ahead of the
// payload (frame header plus fileID/offset/length prefix) is framing.
// Shared by the message-based charge path and the vectored send path,
// which writes the header and payload separately and never materializes
// a protocol.Data value.
func appendDataSegments(dst []causeSeg, total, payloadLen int64) []causeSeg {
	prefix := total - payloadLen
	if prefix < 0 {
		prefix, payloadLen = total, 0
	}
	return append(dst, causeSeg{ledger.Framing, prefix}, causeSeg{ledger.Payload, payloadLen})
}

// chargeSegs charges the first n wire bytes of the segment layout and
// reports how many bytes it charged (always exactly min(n, Σsegs) plus
// any overrun, i.e. exactly n for n ≥ 0). Bytes beyond the layout —
// which cannot happen for a correctly sized layout — land in framing
// so the exact-total contract survives even an accounting bug.
func chargeSegs(l *ledger.Ledger, segs []causeSeg, n int64) int64 {
	if l == nil || n <= 0 {
		return 0
	}
	charged := int64(0)
	for _, s := range segs {
		if n <= 0 {
			break
		}
		take := s.n
		if take > n {
			take = n
		}
		l.Add(s.cause, take)
		charged += take
		n -= take
	}
	if n > 0 {
		l.Add(ledger.Framing, n)
		charged += n
	}
	return charged
}

// retagRetransmit rewrites a re-sent message's payload-bearing causes
// to retransmit: the bytes are on the wire a second time. Framing stays
// framing (the envelope is overhead either way) and resume traffic
// stays resume (it exists only because of the retry and is never a
// duplicate of earlier bytes).
func retagRetransmit(segs []causeSeg) []causeSeg {
	for i := range segs {
		switch segs[i].cause {
		case ledger.Framing, ledger.Resume:
		default:
			segs[i].cause = ledger.Retransmit
		}
	}
	return segs
}

// splitDataByHighWater replaces the payload segment of a Data piece
// with a retransmit/payload split against the operation's high-water
// mark (the highest payload offset already sent or received), and
// advances the mark. Fresh bytes stay payload; bytes at offsets covered
// before are retransmits.
//
// The rewrite reuses segs' backing array (out grows at most one element
// past the read cursor), which is safe because the payload segment is
// always the layout's last.
func splitDataByHighWater(segs []causeSeg, offset, length int64, high *int64) []causeSeg {
	hi := offset + length
	resent := *high - offset
	if resent < 0 {
		resent = 0
	}
	if resent > length {
		resent = length
	}
	if hi > *high {
		*high = hi
	}
	if resent == 0 {
		return segs
	}
	out := segs[:0]
	for _, s := range segs {
		if s.cause != ledger.Payload {
			out = append(out, s)
			continue
		}
		// The piece starts at offset: its first `resent` bytes were sent
		// before, the rest are new.
		out = append(out,
			causeSeg{ledger.Retransmit, resent},
			causeSeg{ledger.Payload, s.n - resent})
	}
	return out
}
