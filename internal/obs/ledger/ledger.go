// Package ledger is the per-byte traffic-attribution layer on top of
// the obs substrate: every wire byte a sync path emits is charged to a
// typed Cause, so a TUE number stops being an opaque scalar and becomes
// a table — the decomposition move of the paper's Tables 6–9.
//
// A Ledger is a fixed array of atomic counters, one per Cause. Like the
// rest of internal/obs, a nil *Ledger is a valid no-op receiver, so the
// instrumented paths cost nothing when attribution is off. Snapshots
// are plain value types that merge associatively, which is what lets
// per-cell ledgers from the parallel experiment pool fold into one
// deterministic total regardless of worker count.
//
// The accounting contract every charging site maintains is exact:
// the sum over all causes equals the total wire bytes of the session
// or cell. internal/invariant checks it with CheckLedger.
package ledger

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Cause classifies why a wire byte was spent. The zero value Unset is
// not a cause.
type Cause uint8

const (
	// Unset is the zero value, a cause nobody named. It never appears
	// in a ledger: Add drops bytes charged to it, and the simulator's
	// capture refuses a packet that carries it.
	Unset Cause = iota
	// Metadata is sync-protocol control chatter: index updates and
	// replies, commits, acks, notifications, session setup.
	Metadata
	// Payload is file content transferred in full.
	Payload
	// DedupProbe is content-fingerprint traffic asking "do you already
	// have this?": file hashes, block hash lists, rsync signatures.
	DedupProbe
	// DeltaLiteral is the literal-data portion of a delta encoding —
	// the bytes that actually changed.
	DeltaLiteral
	// DeltaCopyRef is the copy-instruction portion of a delta encoding:
	// references to blocks the receiver already holds.
	DeltaCopyRef
	// Resume is retry/resume negotiation traffic (ResumeQuery and
	// ResumeInfo exchanges after a connection cut).
	Resume
	// Retransmit is bytes put on the wire again after having been sent
	// once — loss-triggered resends in the simulator, and re-sent
	// messages on live retry attempts.
	Retransmit
	// Framing is transport and record-layer overhead: message headers,
	// TCP/TLS handshakes, segment headers, acks, partial writes that
	// never formed a complete message.
	Framing

	// NumCauses bounds the Cause space (Unset excluded from storage).
	NumCauses
)

// Causes lists every real cause in stable render order.
func Causes() []Cause {
	return []Cause{Metadata, Payload, DedupProbe, DeltaLiteral, DeltaCopyRef, Resume, Retransmit, Framing}
}

// String returns the snake_case cause label used in Prometheus series
// and breakdown tables.
func (c Cause) String() string {
	switch c {
	case Unset:
		return "unset"
	case Metadata:
		return "metadata"
	case Payload:
		return "payload"
	case DedupProbe:
		return "dedup_probe"
	case DeltaLiteral:
		return "delta_literal"
	case DeltaCopyRef:
		return "delta_copyref"
	case Resume:
		return "resume"
	case Retransmit:
		return "retransmit"
	case Framing:
		return "framing"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Ledger charges wire bytes to causes. All methods are safe for
// concurrent use, and all are no-ops on a nil receiver.
type Ledger struct {
	c [NumCauses]atomic.Int64
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{} }

// Add charges n bytes to cause c. Non-positive n and Unset/out-of-range
// causes are ignored, so charging sites can pass raw partial-write
// deltas without guarding.
func (l *Ledger) Add(c Cause, n int64) {
	if l == nil || n <= 0 || c == Unset || c >= NumCauses {
		return
	}
	l.c[c].Add(n)
}

// Get reports the bytes charged to cause c so far.
func (l *Ledger) Get(c Cause) int64 {
	if l == nil || c >= NumCauses {
		return 0
	}
	return l.c[c].Load()
}

// Total reports the bytes charged across all causes.
func (l *Ledger) Total() int64 {
	if l == nil {
		return 0
	}
	var t int64
	for _, c := range Causes() {
		t += l.c[c].Load()
	}
	return t
}

// Reset zeroes every counter.
func (l *Ledger) Reset() {
	if l == nil {
		return
	}
	for i := range l.c {
		l.c[i].Store(0)
	}
}

// Snapshot captures the current per-cause totals as a value.
func (l *Ledger) Snapshot() Snapshot {
	var s Snapshot
	if l == nil {
		return s
	}
	for _, c := range Causes() {
		s[c] = l.c[c].Load()
	}
	return s
}

// MergeSnapshot adds a snapshot's totals into the ledger — the
// cross-session merge path. Safe to call concurrently from the worker
// pool; the result is order-independent because each cause is a plain
// atomic sum.
func (l *Ledger) MergeSnapshot(s Snapshot) {
	if l == nil {
		return
	}
	for _, c := range Causes() {
		if s[c] > 0 {
			l.c[c].Add(s[c])
		}
	}
}

// WritePrometheus renders the ledger as one counter family in
// Prometheus text exposition format, one sample per cause:
//
//	name{cause="payload"} 1048576
func (l *Ledger) WritePrometheus(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s Wire bytes attributed by cause.\n# TYPE %s counter\n", name, name); err != nil {
		return err
	}
	s := l.Snapshot()
	for _, c := range Causes() {
		if _, err := fmt.Fprintf(w, "%s{cause=%q} %d\n", name, c, s[c]); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the ledger as a per-session breakdown table: one row
// per non-zero cause with its share of the total, largest first, plus a
// total row. Intended for CLI "why was my TUE 1.7" output.
func (l *Ledger) Table(title string) string {
	return l.Snapshot().Table(title)
}

// Snapshot is a point-in-time per-cause byte breakdown. Index by Cause.
// Snapshots are plain values: merging is component-wise addition, so it
// is associative and commutative.
type Snapshot [NumCauses]int64

// Get reports the bytes for cause c.
func (s Snapshot) Get(c Cause) int64 {
	if c >= NumCauses {
		return 0
	}
	return s[c]
}

// Total reports the bytes across all causes.
func (s Snapshot) Total() int64 {
	var t int64
	for _, c := range Causes() {
		t += s[c]
	}
	return t
}

// Merge returns the component-wise sum of s and o.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for _, c := range Causes() {
		s[c] += o[c]
	}
	return s
}

// Table renders the snapshot as a breakdown table; see Ledger.Table.
func (s Snapshot) Table(title string) string {
	type row struct {
		c Cause
		n int64
	}
	var rows []row
	for _, c := range Causes() {
		if s[c] > 0 {
			rows = append(rows, row{c, s[c]})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	total := s.Total()

	var b []byte
	b = append(b, title...)
	b = append(b, '\n')
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = float64(r.n) / float64(total) * 100
		}
		b = append(b, fmt.Sprintf("  %-14s %12d B  %5.1f%%\n", r.c, r.n, pct)...)
	}
	b = append(b, fmt.Sprintf("  %-14s %12d B  100.0%%\n", "total", total)...)
	return string(b)
}
