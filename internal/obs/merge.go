package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// TraceDump is one process's span snapshot plus the identity and clock
// metadata Merge needs to join it with dumps from other processes: the
// tracer's TraceID (how foreign spans reference this dump's spans) and
// the wall-clock epoch its span offsets are relative to (how timelines
// align).
type TraceDump struct {
	Process     string
	TraceID     TraceID
	EpochUnixNs int64
	Spans       []SpanData
}

// Dump snapshots the tracer as a TraceDump labeled with a process name
// (a zero dump on a nil tracer).
func (t *Tracer) Dump(process string) TraceDump {
	return TraceDump{
		Process:     process,
		TraceID:     t.TraceID(),
		EpochUnixNs: t.EpochUnixNano(),
		Spans:       t.Spans(),
	}
}

// dumpMeta is the first line of the dump JSONL format.
type dumpMeta struct {
	Process     string `json:"process"`
	TraceID     string `json:"trace_id,omitempty"`
	EpochUnixNs int64  `json:"epoch_unix_ns,omitempty"`
}

// dumpSpan is one span line of the dump JSONL format. Times are integer
// nanoseconds so dumps round-trip exactly.
type dumpSpan struct {
	ID           uint64            `json:"id"`
	Parent       uint64            `json:"parent,omitempty"`
	Root         uint64            `json:"root,omitempty"`
	Name         string            `json:"name"`
	StartNs      int64             `json:"start_ns"`
	EndNs        int64             `json:"end_ns,omitempty"`
	Ended        bool              `json:"ended,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	RemoteTrace  string            `json:"remote_trace,omitempty"`
	RemoteParent uint64            `json:"remote_parent,omitempty"`
}

// WriteDump writes the dump in its JSONL form: a meta line (process,
// trace_id, epoch_unix_ns) followed by one span per line. The format is
// what ReadDump parses and what processes exchange to build a merged
// cross-process trace.
func WriteDump(w io.Writer, d TraceDump) error {
	enc := json.NewEncoder(w)
	meta := dumpMeta{Process: d.Process, EpochUnixNs: d.EpochUnixNs}
	if !d.TraceID.IsZero() {
		meta.TraceID = d.TraceID.String()
	}
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("obs: writing dump meta: %w", err)
	}
	for _, s := range d.Spans {
		js := dumpSpan{
			ID: s.ID, Parent: s.Parent, Root: s.Root, Name: s.Name,
			StartNs: int64(s.Start), Ended: s.Ended, Attrs: s.attrMap(),
			RemoteParent: s.RemoteParent,
		}
		if s.Ended {
			js.EndNs = int64(s.End)
		}
		if !s.RemoteTrace.IsZero() {
			js.RemoteTrace = s.RemoteTrace.String()
		}
		if err := enc.Encode(js); err != nil {
			return fmt.Errorf("obs: writing dump span: %w", err)
		}
	}
	return nil
}

// ReadDump parses a dump written by WriteDump. Attribute insertion
// order is not preserved (attributes re-load sorted by key); everything
// else round-trips exactly.
func ReadDump(r io.Reader) (TraceDump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return TraceDump{}, fmt.Errorf("obs: reading dump: %w", err)
		}
		return TraceDump{}, fmt.Errorf("obs: empty dump")
	}
	var meta dumpMeta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return TraceDump{}, fmt.Errorf("obs: dump meta line: %w", err)
	}
	d := TraceDump{Process: meta.Process, EpochUnixNs: meta.EpochUnixNs}
	if meta.TraceID != "" {
		id, err := ParseTraceID(meta.TraceID)
		if err != nil {
			return TraceDump{}, err
		}
		d.TraceID = id
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var js dumpSpan
		if err := json.Unmarshal(sc.Bytes(), &js); err != nil {
			return TraceDump{}, fmt.Errorf("obs: dump line %d: %w", line, err)
		}
		s := SpanData{
			ID: js.ID, Parent: js.Parent, Root: js.Root, Name: js.Name,
			Start: time.Duration(js.StartNs), End: time.Duration(js.EndNs),
			Ended: js.Ended, RemoteParent: js.RemoteParent,
		}
		if js.RemoteTrace != "" {
			id, err := ParseTraceID(js.RemoteTrace)
			if err != nil {
				return TraceDump{}, err
			}
			s.RemoteTrace = id
		}
		if len(js.Attrs) > 0 {
			keys := make([]string, 0, len(js.Attrs))
			for k := range js.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				s.Attrs = append(s.Attrs, String(k, js.Attrs[k]))
			}
		}
		d.Spans = append(d.Spans, s)
	}
	if err := sc.Err(); err != nil {
		return TraceDump{}, fmt.Errorf("obs: reading dump: %w", err)
	}
	return d, nil
}

// MergedSpan is one span of a cross-process merged trace: IDs are
// remapped to be globally unique, remote parents are resolved into
// ordinary Parent links, and Start/End are offsets on one shared
// timeline (the earliest dump epoch).
type MergedSpan struct {
	ID, Parent, Root uint64
	Process          string
	Name             string
	Start, End       time.Duration
	Ended            bool
	Attrs            []Attr
}

// Duration is the span's End − Start (0 while unfinished).
func (m MergedSpan) Duration() time.Duration {
	if !m.Ended {
		return 0
	}
	return m.End - m.Start
}

// Merge joins per-process dumps into one span forest. A span recorded
// with StartRemote — carrying a (RemoteTrace, RemoteParent) reference —
// is re-parented under the referenced span when some dump's TraceID
// matches and that span exists; otherwise it stays a root. Clock
// alignment uses each dump's epoch: dumps with a zero epoch (sim
// tracers) keep their raw offsets. Roots are recomputed over the
// joined forest, so a client op and the server work it caused share
// one Root. Output is sorted by start time.
func Merge(dumps ...TraceDump) []MergedSpan {
	// Remap each dump's span IDs into one namespace by per-dump offset.
	offsets := make([]uint64, len(dumps))
	var next uint64
	for i, d := range dumps {
		offsets[i] = next
		var maxID uint64
		for _, s := range d.Spans {
			if s.ID > maxID {
				maxID = s.ID
			}
		}
		next += maxID
	}

	// Resolve trace IDs to dumps (first dump wins on duplicates) and
	// index which span IDs each dump actually holds.
	byTrace := make(map[TraceID]int, len(dumps))
	have := make([]map[uint64]bool, len(dumps))
	for i, d := range dumps {
		if !d.TraceID.IsZero() {
			if _, ok := byTrace[d.TraceID]; !ok {
				byTrace[d.TraceID] = i
			}
		}
		have[i] = make(map[uint64]bool, len(d.Spans))
		for _, s := range d.Spans {
			have[i][s.ID] = true
		}
	}

	// The shared timeline zero: the earliest nonzero epoch.
	var base int64
	for _, d := range dumps {
		if d.EpochUnixNs != 0 && (base == 0 || d.EpochUnixNs < base) {
			base = d.EpochUnixNs
		}
	}

	var out []MergedSpan
	parent := make(map[uint64]uint64)
	for i, d := range dumps {
		var shift time.Duration
		if base != 0 && d.EpochUnixNs != 0 {
			shift = time.Duration(d.EpochUnixNs - base)
		}
		for _, s := range d.Spans {
			id := s.ID + offsets[i]
			var p uint64
			switch {
			case s.Parent != 0:
				p = s.Parent + offsets[i]
			case s.RemoteParent != 0:
				if j, ok := byTrace[s.RemoteTrace]; ok && have[j][s.RemoteParent] {
					p = s.RemoteParent + offsets[j]
				}
			}
			m := MergedSpan{
				ID: id, Parent: p, Process: d.Process, Name: s.Name,
				Start: s.Start + shift, Ended: s.Ended, Attrs: s.Attrs,
			}
			if s.Ended {
				m.End = s.End + shift
			}
			out = append(out, m)
			parent[id] = p
		}
	}

	// Recompute roots over the joined forest (bounded walk: the parent
	// relation is a DAG by construction, but a malformed dump pair could
	// alias IDs into a cycle, so never loop past the span count).
	for k := range out {
		id := out[k].ID
		for steps := 0; parent[id] != 0 && steps <= len(out); steps++ {
			id = parent[id]
		}
		out[k].Root = id
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteMergedChromeTrace writes a merged span forest as a Chrome
// trace_event JSON document (chrome://tracing, ui.perfetto.dev) — the
// one Chrome writer: a single process's trace is Merge of its one dump.
// Each joined tree renders as one track (tid = merged Root), so server
// spans stack under the client operation that caused them; every
// event's args carry its process name. Unfinished spans have zero
// duration. Timestamps are rebased so the earliest span starts at 0.
func WriteMergedChromeTrace(w io.Writer, spans []MergedSpan) error {
	var base time.Duration
	for i, m := range spans {
		if i == 0 || m.Start < base {
			base = m.Start
		}
	}
	doc := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, m := range spans {
		args := map[string]string{"process": m.Process}
		for _, a := range m.Attrs {
			args[a.Key] = attrString(a)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: m.Name, Ph: "X", Ts: us(m.Start - base), Dur: us(m.Duration()),
			Pid: 1, Tid: m.Root, Args: args,
		})
	}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("obs: writing merged Chrome trace: %w", err)
	}
	return nil
}
