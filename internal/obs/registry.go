package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Updates are a single
// atomic add; a nil *Counter is a valid no-op.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n (negative n is ignored — counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a valid
// no-op.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add shifts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the number of finite histogram buckets: upper bounds
// 2^0, 2^1, …, 2^(HistBuckets-1), plus an implicit +Inf bucket.
const HistBuckets = 41

// Histogram counts observations into fixed power-of-two buckets
// (upper bounds 1, 2, 4, …, 2^40, +Inf). The fixed log scale keeps
// Observe a single atomic add with no configuration or allocation, and
// one shape serves both byte volumes (up to a terabyte) and
// microsecond durations (up to ~13 days). A nil *Histogram is a valid
// no-op.
type Histogram struct {
	buckets [HistBuckets + 1]atomic.Int64 // [HistBuckets] = +Inf
	sum     atomic.Int64
	count   atomic.Int64
}

// bucketIndex returns the index of the smallest bucket whose upper
// bound is ≥ v. Values ≤ 1 (including negatives) land in bucket 0.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(v - 1)) // smallest p with 2^p ≥ v
	if idx >= HistBuckets {
		return HistBuckets // +Inf
	}
	return idx
}

// BucketBound reports bucket i's upper bound (math.MaxInt64 stands in
// for +Inf).
func BucketBound(i int) int64 {
	if i >= HistBuckets {
		return int64(^uint64(0) >> 1)
	}
	return int64(1) << uint(i)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reports the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total of all observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// QuantileStepTolerancePct is the smallest relative band (in percent)
// within which two Quantile results must be treated as equal: adjacent
// representable answers inside one power-of-two bucket can differ by
// up to the bucket's full width, i.e. up to 2×. Comparisons of
// quantiles — regression gates, phase decompositions, bench diffs —
// must therefore never use a tolerance tighter than this.
const QuantileStepTolerancePct = 125

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values
// by log-linear interpolation within the power-of-two bucket holding
// the target rank.
//
// Resolution contract: the answer is exact only to the width of the
// bucket the rank lands in. Buckets double, so the true quantile can
// be anywhere in (bound/2, bound] — a worst-case ~2× relative error,
// though interpolation does far better when observations spread inside
// the bucket. Two quantiles closer than QuantileStepTolerancePct
// percent apart are indistinguishable on this scale and must not be
// compared more finely (phase decompositions and bench gates included).
// Returns 0 on a nil or empty histogram; ranks landing in the +Inf
// bucket report the largest finite bound.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := 0; i <= HistBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= HistBuckets {
				return BucketBound(HistBuckets - 1)
			}
			lo := int64(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			// Linear interpolation of the rank's position within the
			// bucket's value range.
			frac := (rank - float64(cum)) / float64(n)
			return lo + int64(frac*float64(hi-lo)+0.5)
		}
		cum += n
	}
	return BucketBound(HistBuckets - 1)
}

// metricKind tags a registered name for rendering.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	kind metricKind
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of metrics. Registration takes a
// mutex; the returned instruments update lock-free, so the hot path
// never contends. Safe for concurrent use. A nil *Registry hands out
// nil instruments, which are themselves no-ops — the zero-overhead
// contract for unobserved runs.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = &metric{kind: kind, help: help}
		switch kind {
		case kindCounter:
			m.c = &Counter{}
		case kindGauge:
			m.g = &Gauge{}
		case kindHistogram:
			m.h = &Histogram{}
		}
		r.metrics[name] = m
		return m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	return m
}

// Counter returns the named counter, creating it on first use.
// Registering the same name twice returns the same instrument; the
// same name as a different type panics. A nil registry returns nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the named gauge, creating it on first use (nil on a
// nil registry).
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge).g
}

// Histogram returns the named histogram, creating it on first use (nil
// on a nil registry).
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram).h
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE comments followed
// by the samples, names sorted for stable output. Histograms emit
// cumulative _bucket{le="…"} samples plus _sum and _count. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	snapshot := make(map[string]*metric, len(r.metrics))
	for name, m := range r.metrics {
		snapshot[name] = m
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		m := snapshot[name]
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, m.help)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, m.g.Value())
		case kindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
			var cum int64
			for i := 0; i <= HistBuckets; i++ {
				cum += m.h.buckets[i].Load()
				le := "+Inf"
				if i < HistBuckets {
					le = strconv.FormatInt(int64(1)<<uint(i), 10)
				}
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, le, cum)
			}
			fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", name, m.h.Sum(), name, m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
