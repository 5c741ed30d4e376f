package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// Span names the traced pass records. One bench.op root covers a
// client call plus the layer replay of that call's inputs; its
// syncnet.call child is the real call, and every layer.<module>.<fn>
// child is one replayed call into that module's public API.
const (
	spanOp           = "bench.op"
	spanCall         = "syncnet.call"
	spanCallList     = "syncnet.call.list"     // mixed-rw reader: the List half of a round
	spanCallDownload = "syncnet.call.download" // and the Download half
)

// span is one timed interval of the traced pass. All spans of one
// operation share Op, the identifier of their bench.op root.
type span struct {
	Name   string
	Client int
	Op     int64 // root span's id
	ID     int64
	Parent int64 // 0 for roots
	Start  int64 // ns since the recorder's epoch
	End    int64
	Bytes  int64 // bytes the layer call processed (0 when not meaningful)
}

// layerAgg accumulates one span name's totals over the whole traced
// pass, so per-layer figures cover every op even though only the first
// keepOps operations keep their individual spans for the trace file.
type layerAgg struct {
	Count int64 `json:"count"`
	NS    int64 `json:"ns"`
	Bytes int64 `json:"bytes"`
}

// keepOps bounds the trace file: spans of each client's first keepOps
// operations are kept verbatim (a 10 s small-file pass would otherwise
// write hundreds of megabytes of JSON); aggregates cover all of them.
const keepOps = 1500

// recorder collects one client goroutine's spans in memory. It is not
// safe for concurrent use: each closed-loop goroutine owns one, and
// they are merged after the goroutines have ended.
type recorder struct {
	epoch  time.Time
	client int
	nextID int64
	ops    int
	spans  []span
	agg    map[string]*layerAgg

	// the operation in progress
	op   int64
	keep bool
	opT0 int64
}

func newRecorder(epoch time.Time, client int) *recorder {
	return &recorder{epoch: epoch, client: client, agg: make(map[string]*layerAgg)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginOp opens a bench.op root span.
func (r *recorder) beginOp() {
	r.nextID++
	r.op = r.nextID
	r.keep = r.ops < keepOps
	r.ops++
	r.opT0 = r.now()
}

// endOp closes the current root span.
func (r *recorder) endOp() {
	r.add(span{Name: spanOp, ID: r.op, Start: r.opT0, End: r.now()})
}

// child records a finished child span of the current op.
func (r *recorder) child(name string, start, end, bytes int64) {
	r.nextID++
	r.add(span{Name: name, ID: r.nextID, Parent: r.op, Start: start, End: end, Bytes: bytes})
}

// layer times fn as one layer.<name> child span that processed bytes.
func (r *recorder) layer(name string, bytes int64, fn func()) {
	t0 := r.now()
	fn()
	r.child(name, t0, r.now(), bytes)
}

func (r *recorder) add(s span) {
	a := r.agg[s.Name]
	if a == nil {
		a = &layerAgg{}
		r.agg[s.Name] = a
	}
	a.Count++
	a.NS += s.End - s.Start
	a.Bytes += s.Bytes
	if r.keep {
		s.Client, s.Op = r.client, r.op
		r.spans = append(r.spans, s)
	}
}

// mergeAggs folds the per-client aggregates into one table.
func mergeAggs(recs []*recorder) map[string]layerAgg {
	out := make(map[string]layerAgg)
	for _, r := range recs {
		for name, a := range r.agg {
			t := out[name]
			t.Count += a.Count
			t.NS += a.NS
			t.Bytes += a.Bytes
			out[name] = t
		}
	}
	return out
}

// writeChromeTrace writes the kept spans as Chrome trace_event JSON
// (complete "X" events, microsecond timestamps, one thread per client),
// loadable in Perfetto or chrome://tracing.
func writeChromeTrace(path string, recs []*recorder) error {
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	slices.SortFunc(all, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range all {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.Name)
		fmt.Fprintf(w, "\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"id":%d,"parent":%d,"bytes":%d}}`,
			name, s.Client, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Op, s.ID, s.Parent, s.Bytes)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
