package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// simNow builds a manually advanced clock for deterministic span
// times.
type simNow struct{ t time.Duration }

func (s *simNow) now() time.Duration { return s.t }

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("op")
	if sp != nil {
		t.Fatalf("nil tracer Start returned %v, want nil", sp)
	}
	// Every span method must absorb the nil receiver.
	sp.Set(Int("k", 1))
	child := sp.Child("sub")
	if child != nil {
		t.Fatalf("nil span Child returned %v, want nil", child)
	}
	child.End()
	sp.End()
	sp.EndAt(5)
	tr.Record("r", 0, 1)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans = %v, want nil", got)
	}
	if tr.Report() != "" {
		t.Fatalf("nil tracer Report = %q, want empty", tr.Report())
	}
	if tr.Now() != 0 {
		t.Fatalf("nil tracer Now = %v, want 0", tr.Now())
	}
}

func TestSpanTree(t *testing.T) {
	clk := &simNow{}
	tr := NewSimTracer(clk.now)

	root := tr.Start("client.upload", String("name", "a.txt"))
	clk.t = 10 * time.Millisecond
	att := root.Child("client.attempt", Int("attempt", 1))
	clk.t = 15 * time.Millisecond
	full := att.Child("client.full_upload")
	full.Set(Int("payload_bytes", 4096))
	clk.t = 40 * time.Millisecond
	full.End()
	att.End()
	clk.t = 41 * time.Millisecond
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	r, a, f := byName["client.upload"], byName["client.attempt"], byName["client.full_upload"]
	if r.Parent != 0 || a.Parent != r.ID || f.Parent != a.ID {
		t.Fatalf("broken parent chain: root=%+v attempt=%+v full=%+v", r, a, f)
	}
	if r.Root != r.ID || a.Root != r.ID || f.Root != r.ID {
		t.Fatalf("root ids not propagated: %+v %+v %+v", r, a, f)
	}
	if f.Start != 15*time.Millisecond || f.Duration() != 25*time.Millisecond {
		t.Fatalf("full span times wrong: start %v dur %v", f.Start, f.Duration())
	}
	if f.Attr("payload_bytes") != "4096" || r.Attr("name") != "a.txt" {
		t.Fatalf("attrs lost: %v / %v", f.Attrs, r.Attrs)
	}

	rep := tr.Report()
	for _, want := range []string{"client.upload", "client.attempt", "client.full_upload", "payload_bytes=4096"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// Children must be indented under the root.
	if strings.Index(rep, "client.upload") > strings.Index(rep, "client.attempt") {
		t.Fatalf("report order wrong:\n%s", rep)
	}
}

func TestEndIsIdempotentAndClamped(t *testing.T) {
	clk := &simNow{t: 10}
	tr := NewSimTracer(clk.now)
	sp := tr.Start("op")
	sp.EndAt(5) // before start: clamped
	sp.EndAt(50)
	d := tr.Spans()[0]
	if !d.Ended || d.End != 10 {
		t.Fatalf("span end = %v (ended %v), want clamped first end 10", d.End, d.Ended)
	}
}

func TestRecordExplicitTimes(t *testing.T) {
	tr := NewSimTracer(func() time.Duration { return 0 })
	tr.Record("net.session", 3*time.Second, 5*time.Second, Int("up_app", 100))
	d := tr.Spans()[0]
	if d.Start != 3*time.Second || d.Duration() != 2*time.Second {
		t.Fatalf("recorded span %+v", d)
	}
}

// TestWriteChromeTrace: a single process's Chrome trace is Merge of its
// one dump, for a wall tracer and a sim tracer alike — valid JSON,
// every event a complete "X" event, and a child on its root's track.
func TestWriteChromeTrace(t *testing.T) {
	clk := &simNow{}
	sim := NewSimTracer(clk.now)
	root := sim.Start("a", String("k", "v"))
	clk.t = 2 * time.Millisecond
	root.Child("b").End()
	root.End()

	wall := NewTracer()
	wroot := wall.Start("a", String("k", "v"))
	wroot.Child("b").End()
	wroot.End()

	for _, c := range []struct {
		process string
		tr      *Tracer
	}{{"sim", sim}, {"wall", wall}} {
		var buf bytes.Buffer
		if err := WriteMergedChromeTrace(&buf, Merge(c.tr.Dump(c.process))); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Ph   string            `json:"ph"`
				Ts   float64           `json:"ts"`
				Dur  float64           `json:"dur"`
				Tid  uint64            `json:"tid"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: chrome trace not JSON: %v", c.process, err)
		}
		if len(doc.TraceEvents) != 2 {
			t.Fatalf("%s: got %d events, want 2", c.process, len(doc.TraceEvents))
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				t.Fatalf("%s: event %q has phase %q, want X", c.process, ev.Name, ev.Ph)
			}
			if ev.Args["process"] != c.process {
				t.Fatalf("%s: event %q process %q", c.process, ev.Name, ev.Args["process"])
			}
		}
		r, ch := doc.TraceEvents[0], doc.TraceEvents[1]
		if r.Name != "a" || ch.Name != "b" {
			t.Fatalf("%s: events %q, %q; want root a first", c.process, r.Name, ch.Name)
		}
		if r.Tid != ch.Tid {
			t.Fatalf("%s: spans of one tree on different tids: %+v", c.process, doc.TraceEvents)
		}
		if r.Args["k"] != "v" {
			t.Fatalf("%s: args lost: %+v", c.process, r.Args)
		}
		// The sim dump has no epoch, so its virtual offsets stay raw:
		// b starts 2 ms into a's 2 ms.
		if c.tr == sim && (ch.Ts != 2000 || r.Dur != 2000) {
			t.Fatalf("sim child ts %v µs, root dur %v µs; want 2000, 2000", ch.Ts, r.Dur)
		}
	}
}

// TestAttrRendering pins how each attr kind renders in reports and
// trace args: the forms the boxed values rendered in before attrs
// became plain values.
func TestAttrRendering(t *testing.T) {
	for _, tc := range []struct {
		a    Attr
		want string
	}{
		{String("name", "a.txt"), "a.txt"},
		{Int("bytes", 4096), "4096"},
		{Int("delta", -42), "-42"},
		{Uint("base_version", 1<<63+1), "9223372036854775809"},
		{Bool("dedup_hit", true), "true"},
		{Bool("incremental", false), "false"},
	} {
		d := SpanData{Attrs: []Attr{tc.a}}
		if got := d.Attr(tc.a.Key); got != tc.want {
			t.Errorf("%s renders %q, want %q", tc.a.Key, got, tc.want)
		}
	}
}
