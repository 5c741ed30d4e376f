package core

import (
	"fmt"
	"time"

	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/hardware"
	"cloudsync/internal/netem"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
)

// AppendTotal is Experiment 6's total appended volume (C = 1 MB).
const AppendTotal = 1 << 20

// PaperXs are Experiment 6's append periods: X ∈ {1, …, 20} seconds.
func PaperXs() []float64 {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// QuickXs is a reduced sweep.
func QuickXs() []float64 { return []float64{1, 2, 5, 8, 12, 20} }

// appendCell is Experiment 6's cell (Fig. 6), the paper's "X KB /
// X sec" appending workload on s: starting from an empty file, append
// X KB every X seconds until AppendTotal bytes accumulate, then drain.
// seed fixes the file's content identity; parallel cells pass a
// pre-reserved seed.
func appendCell(s *service.Setup, x float64, seed int64) Cell {
	const name = "frequent.doc"
	must(s.FS.Create(name, content.Random(0, seed)))
	s.Clock.Run()
	step := int64(x * 1024)
	if step <= 0 {
		panic(fmt.Sprintf("core: append workload with X = %v", x))
	}
	period := time.Duration(x * float64(time.Second))
	m := Measure(s, func() {
		var scheduled int64
		base := s.Clock.Now()
		for i := int64(1); scheduled < AppendTotal; i++ {
			n := min(step, AppendTotal-scheduled)
			scheduled += n
			s.Clock.Post(base+time.Duration(i)*period, func() { must(s.FS.Append(name, n)) })
		}
	})
	return cellOf(s, x, m, AppendTotal)
}

// appendTUE runs one "X KB / X sec" experiment on a fresh PC setup and
// reports its TUE. seed fixes the appended file's content identity;
// parallel callers pass a pre-reserved seed (see creationSeed's
// determinism contract).
func appendTUE(n service.Name, opts service.Options, x float64, seed int64) float64 {
	return appendCell(service.NewSetup(n, client.PC, opts), x, seed).TUE
}

// appendTask is one pre-seeded cell of an appending-workload sweep.
type appendTask struct {
	n    service.Name
	x    float64
	seed int64
}

// Experiment6 reproduces Fig. 6: the TUE of each service's PC client
// under "X KB / X sec" appends from Minnesota on M1 hardware. The
// (service × X) cells are independent and run on the worker pool.
func Experiment6(services []service.Name, xs []float64) []Cell {
	var tasks []appendTask
	for _, n := range services {
		for _, x := range xs {
			tasks = append(tasks, appendTask{n: n, x: x, seed: nextSeed()})
		}
	}
	return parallel.Map(tasks, func(_ int, t appendTask) Cell {
		return appendCell(service.NewSetup(t.n, client.PC, service.Options{}), t.x, t.seed)
	})
}

// InferDeferment probes a service's fixed sync deferment the way
// § 6.1 does: scan fractional X values for the boundary between the
// batched regime (TUE ≈ 1) and the traffic-overuse regime. It reports
// the estimated deferment and whether one was detected at all.
//
// The bisection is inherently sequential (each probe's X depends on
// the previous outcome), so it reserves a private seed sequence up
// front and stays deterministic even when several InferDeferment calls
// run concurrently (see InferDeferments).
func InferDeferment(n service.Name) (time.Duration, bool) {
	const batchedTUE = 3.0
	// 2 boundary probes + at most ceil(log2((16-0.6)/0.1)) ≈ 8 bisection
	// steps; reserve with slack.
	seeds := reserveSeeds(16)
	probe := func(x float64) bool { // true = still batched
		return appendTUE(n, service.Options{}, x, seeds.Next()) < batchedTUE
	}
	if !probe(0.6) {
		return 0, false // no deferment: overuse even at sub-second cadence
	}
	lo, hi := 0.6, 16.0
	if probe(hi) {
		return 0, false // batches at any cadence: not a fixed deferment
	}
	for hi-lo > 0.1 {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return time.Duration((lo + hi) / 2 * float64(time.Second)), true
}

// Deferment is one service's inferred sync deferment.
type Deferment struct {
	Service  service.Name
	Delay    time.Duration
	Detected bool
}

// InferDeferments runs InferDeferment for every given service on the
// worker pool, preserving input order.
func InferDeferments(services []service.Name) []Deferment {
	return parallel.Map(services, func(_ int, n service.Name) Deferment {
		d, ok := InferDeferment(n)
		return Deferment{Service: n, Delay: d, Detected: ok}
	})
}

// PolicyCell is one ASD-evaluation measurement.
type PolicyCell struct {
	Service service.Name
	Policy  string
	X       float64
	TUE     float64
}

// ASDEvaluation compares the service's native deferment against the
// paper's proposed ASD and the UDS byte-counter baseline on the
// appending workload — the § 6.1 claim that ASD keeps TUE near 1 where
// fixed deferments fail (X > T). The (policy × X) cells run on the
// worker pool.
func ASDEvaluation(n service.Name, xs []float64) []PolicyCell {
	asd := service.ReferenceClientConfig().Defer
	policies := []struct {
		label  string
		policy *deferpolicy.Policy
	}{
		{"native", nil}, // service default
		{"asd", &asd},   // the reference design's policy
		{"uds", &deferpolicy.Policy{Kind: deferpolicy.UDS, Threshold: 256 << 10, MaxDelay: 5 * time.Minute}},
	}
	type task struct {
		label  string
		policy *deferpolicy.Policy
		x      float64
		seed   int64
	}
	var tasks []task
	for _, p := range policies {
		for _, x := range xs {
			tasks = append(tasks, task{label: p.label, policy: p.policy, x: x, seed: nextSeed()})
		}
	}
	return parallel.Map(tasks, func(_ int, t task) PolicyCell {
		tue := appendTUE(n, service.Options{Defer: t.policy}, t.x, t.seed)
		return PolicyCell{Service: n, Policy: t.label, X: t.x, TUE: tue}
	})
}

// LocationCell is one Fig. 7 measurement.
type LocationCell struct {
	Service  service.Name
	Location string
	X        float64
	TUE      float64
}

// Experiment7 reproduces Fig. 7: the appending workload from the
// Minnesota vantage point (close to the cloud) and from Beijing
// (remote), for the given services. Cells run on the worker pool.
func Experiment7(services []service.Name, xs []float64) []LocationCell {
	locations := []struct {
		name string
		link netem.Link
	}{
		{"MN", netem.Minnesota()},
		{"BJ", netem.Beijing()},
	}
	type task struct {
		n    service.Name
		loc  string
		link netem.Link
		x    float64
		seed int64
	}
	var tasks []task
	for _, n := range services {
		for _, loc := range locations {
			for _, x := range xs {
				tasks = append(tasks, task{n: n, loc: loc.name, link: loc.link, x: x, seed: nextSeed()})
			}
		}
	}
	return parallel.Map(tasks, func(_ int, t task) LocationCell {
		tue := appendTUE(t.n, service.Options{Link: t.link}, t.x, t.seed)
		return LocationCell{Service: t.n, Location: t.loc, X: t.x, TUE: tue}
	})
}

// NetCell is one Fig. 8(a)/(b) measurement.
type NetCell struct {
	// Bps is the link bandwidth; RTT the round-trip time.
	Bps int64
	RTT time.Duration
	TUE float64
}

// Fig8aBandwidths is the paper's controlled bandwidth range.
var Fig8aBandwidths = []int64{1_600_000, 3_000_000, 5_000_000, 10_000_000, 15_000_000, 20_000_000}

// Fig8a reproduces Fig. 8(a): Dropbox handling "1 KB/sec" appends with
// the bandwidth tuned from 1.6 to 20 Mbps at ≈ 50 ms latency.
func Fig8a(bandwidths []int64) []NetCell {
	seeds := make([]int64, len(bandwidths))
	for i := range seeds {
		seeds[i] = nextSeed()
	}
	return parallel.Map(bandwidths, func(i int, bps int64) NetCell {
		link := netem.Link{UpBps: bps, DownBps: bps, RTT: 50 * time.Millisecond}
		tue := appendTUE(service.Dropbox, service.Options{Link: link}, 1, seeds[i])
		return NetCell{Bps: bps, RTT: link.RTT, TUE: tue}
	})
}

// Fig8bLatencies is the paper's controlled latency range.
var Fig8bLatencies = []time.Duration{
	40 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
	400 * time.Millisecond, 600 * time.Millisecond, 800 * time.Millisecond, time.Second,
}

// Fig8b reproduces Fig. 8(b): Dropbox handling "1 KB/sec" appends with
// the latency tuned from 40 to 1000 ms at 20 Mbps.
func Fig8b(latencies []time.Duration) []NetCell {
	seeds := make([]int64, len(latencies))
	for i := range seeds {
		seeds[i] = nextSeed()
	}
	return parallel.Map(latencies, func(i int, rtt time.Duration) NetCell {
		link := netem.Link{UpBps: 20_000_000, DownBps: 20_000_000, RTT: rtt}
		tue := appendTUE(service.Dropbox, service.Options{Link: link}, 1, seeds[i])
		return NetCell{Bps: link.UpBps, RTT: rtt, TUE: tue}
	})
}

// HWCell is one Fig. 8(c) measurement.
type HWCell struct {
	Machine string
	X       float64
	TUE     float64
}

// Fig8c reproduces Fig. 8(c) / Experiment 7′: Dropbox handling the
// appending workload on the typical (M1), outdated (M2), and advanced
// (M3) machines.
func Fig8c(xs []float64) []HWCell {
	machines := []hardware.Profile{hardware.M1(), hardware.M2(), hardware.M3()}
	type task struct {
		hw   hardware.Profile
		x    float64
		seed int64
	}
	var tasks []task
	for _, hw := range machines {
		for _, x := range xs {
			tasks = append(tasks, task{hw: hw, x: x, seed: nextSeed()})
		}
	}
	return parallel.Map(tasks, func(_ int, t task) HWCell {
		tue := appendTUE(service.Dropbox, service.Options{Hardware: t.hw}, t.x, t.seed)
		return HWCell{Machine: t.hw.Name, X: t.x, TUE: tue}
	})
}
