package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// TraceID is a 128-bit identifier naming one tracer's span namespace.
// It is what makes span IDs meaningful across processes: a span
// reference carried over the wire is (TraceID, span ID), and Merge
// joins dumps by matching the two. The zero TraceID means "none".
type TraceID [16]byte

// NewTraceID returns a random 128-bit trace ID.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil {
		panic(fmt.Sprintf("obs: reading random trace id: %v", err))
	}
	return id
}

// IsZero reports whether the trace ID is the zero ("none") value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the trace ID as 32 hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace id %q is not 32 hex digits", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	return id, nil
}

// Tracer records hierarchical spans on a shared clock. It is safe for
// concurrent use: any goroutine may start, annotate, and end spans.
// A nil *Tracer is a valid no-op tracer — Start returns a nil *Span,
// whose methods are likewise no-ops — which is the zero-overhead
// contract instrumented code relies on.
type Tracer struct {
	now     func() time.Duration
	traceID TraceID
	epoch   time.Time // wall-clock zero of the span clock (zero for sim tracers)

	mu     sync.Mutex
	nextID uint64
	spans  []*Span
}

// NewTracer returns a tracer stamping spans with wall-clock offsets
// from the moment of construction. It carries a fresh random TraceID,
// so its spans can be referenced from other processes and its dumps
// merged (see Dump and Merge).
func NewTracer() *Tracer {
	epoch := time.Now()
	return &Tracer{
		now:     func() time.Duration { return time.Since(epoch) },
		traceID: NewTraceID(),
		epoch:   epoch,
	}
}

// NewSimTracer returns a tracer reading virtual time from now —
// typically a simclock.Clock's Now method — so simulation spans carry
// deterministic virtual timestamps. Sim tracers carry no TraceID and
// no wall-clock epoch: determinism matters more than mergeability.
func NewSimTracer(now func() time.Duration) *Tracer {
	if now == nil {
		panic("obs: NewSimTracer with nil clock")
	}
	return &Tracer{now: now}
}

// TraceID reports the tracer's 128-bit identity (zero on nil tracers
// and sim tracers).
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}

// EpochUnixNano reports the wall-clock instant the tracer's span clock
// reads zero at, in Unix nanoseconds (0 for nil and sim tracers).
// Merging dumps from two processes aligns their timelines by comparing
// epochs.
func (t *Tracer) EpochUnixNano() int64 {
	if t == nil || t.epoch.IsZero() {
		return 0
	}
	return t.epoch.UnixNano()
}

// Now reports the tracer's current clock reading (0 on a nil tracer).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// Span is one timed operation in a trace. Fields are private; use
// Spans for a snapshot. All methods are nil-safe.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64 // 0 = root
	root   uint64 // id of the tree's root span (its own id for roots)
	name   string
	start  time.Duration
	end    time.Duration
	ended  bool
	attrs  []Attr

	// Remote parentage: set by StartRemote when the span's logical
	// parent lives in another process's tracer. The span is a local
	// root (parent 0) but records which foreign span caused it, so a
	// dump merge can re-attach it under that span.
	remoteTrace  TraceID
	remoteParent uint64
}

// SpanID reports the span's tracer-unique identifier (0 on nil) — the
// value a caller propagates over the wire so a peer's StartRemote can
// name this span as the remote parent.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Start opens a root span. On a nil tracer it returns nil, and the
// nil span absorbs every further call.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, 0, t.now(), attrs)
}

// StartRemote opens a local root span whose logical parent is a span
// in another process: trace names that process's tracer and parentSpan
// the span within it. The linkage is recorded on the span so Merge can
// re-attach the local tree under its remote parent; with a zero trace
// it degrades to a plain Start.
func (t *Tracer) StartRemote(name string, trace TraceID, parentSpan uint64, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := t.newSpan(name, 0, 0, t.now(), attrs)
	if !trace.IsZero() && parentSpan != 0 {
		t.mu.Lock()
		s.remoteTrace = trace
		s.remoteParent = parentSpan
		t.mu.Unlock()
	}
	return s
}

func (t *Tracer) newSpan(name string, parent, root uint64, start time.Duration, attrs []Attr) *Span {
	t.mu.Lock()
	t.nextID++
	s := &Span{tr: t, id: t.nextID, parent: parent, root: root, name: name, start: start,
		attrs: append([]Attr(nil), attrs...)}
	if root == 0 {
		s.root = s.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Child opens a span nested under s.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id, s.root, s.tr.now(), attrs)
}

// Set appends attributes to the span.
func (s *Span) Set(attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
	return s
}

// End closes the span at the tracer's current clock reading. Ending a
// span twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tr.now())
}

// EndAt closes the span at an explicit time (clamped to the start so a
// span never has negative duration).
func (s *Span) EndAt(at time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		if at < s.start {
			at = s.start
		}
		s.end = at
		s.ended = true
	}
	s.tr.mu.Unlock()
}

// Record writes a complete root span with explicit times in one call —
// the shape analytical layers use when an operation's start and end
// are computed rather than observed.
func (t *Tracer) Record(name string, start, end time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.newSpan(name, 0, 0, start, attrs).EndAt(end)
}

// SpanData is an exported snapshot of one span, as returned by Spans.
type SpanData struct {
	// ID is the span's tracer-unique identifier; Parent is the ID of the
	// enclosing span (0 for roots); Root is the ID of the tree's root.
	ID, Parent, Root uint64
	// Name labels the operation (dotted layer.operation by convention).
	Name string
	// Start and End are clock offsets; Ended reports whether End was
	// recorded (an unfinished span has End == 0).
	Start, End time.Duration
	Ended      bool
	// Attrs are the span's annotations in insertion order.
	Attrs []Attr
	// RemoteTrace/RemoteParent record a cross-process parent set by
	// StartRemote (zero when the span's parent is local or absent).
	RemoteTrace  TraceID
	RemoteParent uint64
}

// Duration is the span's End − Start (0 while unfinished).
func (d SpanData) Duration() time.Duration {
	if !d.Ended {
		return 0
	}
	return d.End - d.Start
}

// Attr returns the named attribute's rendered value ("" when absent).
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return attrString(a)
		}
	}
	return ""
}

// Spans snapshots every span recorded so far, in start order (nil and
// empty tracers return nil).
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, SpanData{
			ID: s.id, Parent: s.parent, Root: s.root, Name: s.name,
			Start: s.start, End: s.end, Ended: s.ended,
			Attrs:       append([]Attr(nil), s.attrs...),
			RemoteTrace: s.remoteTrace, RemoteParent: s.remoteParent,
		})
	}
	return out
}
