package main

import (
	"reflect"
	"testing"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestQuantileRefusesUnsupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{0, 0.99, 0, false},
		{100, 0.99, 99, false},  // 1 sample beyond: an outlier, not a percentile
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{999, 0.99, 990, false}, // 9 beyond
		{20, 0.5, 10, true},     // the median needs 20 samples for 10 beyond
		{19, 0.5, 10, false},
		{5, 1.0, 5, false},
	}
	for _, c := range cases {
		v, ok := quantile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("quantile(1..%d, %v) = %d, %v; want %d, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func TestMedians(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	if got := medianNS([]int64{3e6, 1e6, 2e6}); got != 2 {
		t.Errorf("medianNS = %v ms", got)
	}
	if got := medianNS([]int64{4e6, 1e6}); got != 2.5 {
		t.Errorf("even medianNS = %v ms", got)
	}
}

func TestRoundStats(t *testing.T) {
	// Two clients: client 0's calls take 2 ms, client 1's 9 ms; 8 files
	// per op, 10 ops, in half a second.
	var s []sample
	for i := range 10 {
		lat := int64(2e6)
		if i%2 == 1 {
			lat = 9e6
		}
		s = append(s, sample{lat: lat, files: 8, client: int32(i % 2)})
	}
	rate, p50 := roundStats(s, 5e8, func(sample) bool { return true })
	if rate != 160 {
		t.Errorf("files/s = %v, want 160", rate)
	}
	if p50 != 5.5 {
		t.Errorf("p50 over both clients = %v ms, want 5.5", p50)
	}
	if _, p50 = roundStats(s, 5e8, func(sm sample) bool { return sm.client == 0 }); p50 != 2 {
		t.Errorf("writer-only p50 = %v ms, want 2", p50)
	}
	if rate, p50 = roundStats(nil, 0, func(sample) bool { return true }); rate != 0 || p50 != 0 {
		t.Errorf("empty round = %v files/s, %v ms", rate, p50)
	}
}

// TestMedianRoundOutvotesSlowRounds: two of five rounds beside a noisy
// neighbour do not move the reported value, and show in the spread.
func TestMedianRoundOutvotesSlowRounds(t *testing.T) {
	rounds := []float64{100, 61, 101, 99, 58}
	s := spreadOf(rounds)
	if s.Median != 99 || s.Min != 58 || s.Max != 101 {
		t.Errorf("spread = %+v", s)
	}
	if !reflect.DeepEqual(s.Rounds, []float64{100, 61, 101, 99, 58}) {
		t.Errorf("rounds reordered: %v", s.Rounds)
	}
	if e := spreadOf(nil); e.Median != 0 || e.Rounds != nil {
		t.Errorf("empty spread = %+v", e)
	}
}

func TestBoundHonoursDirection(t *testing.T) {
	higher := metricDef{Name: "files_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	cases := []struct {
		m         metricDef
		base, cur float64
		regressed bool
	}{
		{higher, 100, 91, false}, // 9 % fewer files/s
		{higher, 100, 89, true},  // 11 % fewer
		{higher, 100, 150, false},
		{lower, 100, 109, false},
		{lower, 100, 111, true},
		{lower, 100, 50, false},
		{lower, 0, 50, false}, // no base, no verdict
	}
	for _, c := range cases {
		if got := c.m.regressed(c.base, c.cur); got != c.regressed {
			t.Errorf("%s: %v -> %v regressed = %v, want %v (worsening %v)",
				c.m.Name, c.base, c.cur, got, c.regressed, c.m.worsening(c.base, c.cur))
		}
	}
}
