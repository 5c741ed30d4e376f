package obs

import (
	"testing"
	"time"
)

// The ObsOff/ObsOn pairs below quantify the nil-instrument contract:
// the Off variant runs the exact call sequence instrumented code makes
// with observability disabled (nil receivers), the On variant with a
// live tracer/registry. `go test -bench 'ObsO(ff|n)$'` runs every pair
// here and in internal/syncnet; compare each On with its Off.

func BenchmarkSpanObsOff(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("op")
		child := sp.Child("stage")
		child.Set("bytes", int64(i))
		child.End()
		sp.End()
	}
}

func BenchmarkSpanObsOn(b *testing.B) {
	var t time.Duration
	tr := NewSimTracer(func() time.Duration { return t })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("op")
		child := sp.Child("stage")
		child.Set("bytes", int64(i))
		child.End()
		sp.End()
		t++
	}
	if len(tr.spans) != 2*b.N {
		b.Fatalf("recorded %d spans, want %d", len(tr.spans), 2*b.N)
	}
}

func BenchmarkCounterObsOff(b *testing.B) {
	var r *Registry
	c := r.Counter("ops_total", "")
	h := r.Histogram("sizes", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}

func BenchmarkCounterObsOn(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	h := r.Histogram("sizes", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}
