package main

import "slices"

// sample is one completed closed-loop operation, recorded exactly: no
// histogram buckets sit between the clock and the reported quantile.
type sample struct {
	lat    int64 // ns the client call took
	files  int32 // user files the op synced
	client int32 // which closed-loop goroutine issued it
}

// tailSupport is how many samples must lie beyond a percentile before
// it may be reported: with fewer, the value is one or two outliers, not
// a property of the system.
const tailSupport = 10

// quantile returns the nearest-rank q-quantile of sorted and whether
// the sample supports it: ok is false when fewer than tailSupport
// samples lie strictly beyond the returned rank, in which case the
// caller must not print the value as a percentile.
func quantile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(q*float64(n)+0.999999) - 1 // ceil(q*n) - 1, nearest rank
	rank = min(max(rank, 0), n-1)
	return sorted[rank], n-1-rank >= tailSupport
}

// median returns the middle of vals (mean of the two middles for even
// counts); vals is sorted in place. It is 0 for an empty input.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	slices.Sort(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// medianNS is the exact median of nanosecond samples, in milliseconds;
// lat is sorted in place.
func medianNS(lat []int64) float64 {
	n := len(lat)
	if n == 0 {
		return 0
	}
	slices.Sort(lat)
	if n%2 == 1 {
		return float64(lat[n/2]) / 1e6
	}
	return float64(lat[n/2-1]+lat[n/2]) / 2e6
}

// numRounds is how many times one run measures its workload. A round
// is a full replica — fresh set-up, the same operation sequence, its
// own verification — so rounds are directly comparable, and the median
// round is the reported value: a round that ran beside a neighbour's
// burst (this sandbox slows whole seconds at a time) or a collector
// cycle is outvoted instead of averaged in. Slices of one long
// measurement are not replicas — server state grows along them, and a
// WAL compaction lands in a different slice from seed to seed — which
// is why the rounds replaced them.
const numRounds = 5

// spread summarises one metric over a run's rounds: the median round
// is the reported value, the min and max rounds its run-internal
// spread.
type spread struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"` // in the order measured
}

func spreadOf(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	return spread{Median: median(slices.Clone(vals)), Min: slices.Min(vals), Max: slices.Max(vals), Rounds: vals}
}

// roundStats reduces one round's samples to files per second of the
// round's wall time and the exact median latency, in milliseconds, of
// the ops keep selects.
func roundStats(samples []sample, wallNS int64, keep func(sample) bool) (filesPerS, p50ms float64) {
	var files int64
	lat := make([]int64, 0, len(samples))
	for _, sm := range samples {
		files += int64(sm.files)
		if keep(sm) {
			lat = append(lat, sm.lat)
		}
	}
	if wallNS > 0 {
		filesPerS = float64(files) / (float64(wallNS) / 1e9)
	}
	return filesPerS, medianNS(lat)
}

// metricDef is one benchmark metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// worsening is how much worse cur is than base as a share of base,
// honouring the metric's direction: positive means worse, negative
// better. A zero base cannot be compared and reports 0.
func (m metricDef) worsening(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// regressed reports whether cur is worse than base by more than the
// metric's bound.
func (m metricDef) regressed(base, cur float64) bool {
	return m.worsening(base, cur) > m.Bound
}
