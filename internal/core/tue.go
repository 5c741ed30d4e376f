// Package core is the paper's primary contribution as a library: the
// TUE (Traffic Usage Efficiency) metric, and the experiment harness
// that reproduces every table and figure of the evaluation —
// Experiments 1 through 7′, Algorithm 1, the trace analyses, the ASD
// evaluation, and the design-choice ablations. Each experiment returns
// structured results; render.go turns them into the paper's tables.
package core

import (
	"fmt"
	"sync/atomic"

	"cloudsync/internal/client"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/service"
)

// tracer is the process-wide tracer the experiment runners record
// per-cell spans on. Atomic because experiment grids run cells on a
// worker pool.
var tracer atomic.Pointer[obs.Tracer]

// SetTracer installs (or, with nil, removes) the tracer that receives
// one "core.cell" span per simulated measurement (Measure), timed on
// the tracer's clock: the wall clock under tuebench -trace, the cell's
// virtual clock under tuebench -cell. Tracing never affects experiment
// results; the tables stay byte-identical.
func SetTracer(tr *obs.Tracer) { tracer.Store(tr) }

// TUE is the paper's Eq. (1): total data sync traffic divided by the
// data update size. A TUE near 1 means the sync mechanism moved about
// as many bytes as the user changed; large values are the traffic
// overuse the paper hunts.
func TUE(syncTraffic, dataUpdateSize int64) float64 {
	if dataUpdateSize <= 0 {
		panic(fmt.Sprintf("core: TUE with data update size %d", dataUpdateSize))
	}
	if syncTraffic < 0 {
		panic(fmt.Sprintf("core: TUE with negative traffic %d", syncTraffic))
	}
	return float64(syncTraffic) / float64(dataUpdateSize)
}

// PaperSizes are Experiment 1/3's file sizes: 1 B to 1 GB in decades.
var PaperSizes = []int64{1, 1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30}

// TableSizes are the four sizes Table 6 prints.
var TableSizes = []int64{1, 1 << 10, 1 << 20, 10 << 20}

// QuickSizes is a reduced sweep for fast runs.
var QuickSizes = []int64{1, 1 << 10, 1 << 20}

// Cell is one measurement of a (service, access method, parameter)
// combination.
type Cell struct {
	Service service.Name
	Access  client.AccessMethod
	// Param is the experiment's swept parameter (file size in bytes,
	// append period in seconds, bandwidth, latency, loss probability —
	// see each experiment).
	Param float64
	// Traffic is the measured operation's wire bytes in both
	// directions, and Causes their decomposition by cause: it sums to
	// Traffic exactly.
	Traffic int64
	Causes  ledger.Snapshot
	// TUE is Traffic over the experiment's data update size.
	TUE float64
}

// Measurement is the wire traffic one measured operation caused, by
// direction and by cause.
type Measurement struct {
	// Up is client→cloud wire bytes, Down cloud→client.
	Up, Down int64
	// Causes decomposes Up+Down by cause, exactly.
	Causes ledger.Snapshot
}

// Traffic reports the measurement's wire bytes in both directions.
func (m Measurement) Traffic() int64 { return m.Up + m.Down }

// Measure is how every simulated number is measured: it attaches a
// fresh cause ledger to the setup's capture, runs op, drains the clock,
// and reports the wire bytes op caused with their decomposition by
// cause. It panics unless the causes sum exactly to the wire bytes — a
// decomposition is only worth reporting if it is provably complete.
// Each call is one "core.cell" span on the installed tracer.
func Measure(s *service.Setup, op func()) Measurement {
	sp := tracer.Load().Start("core.cell",
		obs.String("service", s.Service.String()), obs.String("access", s.Access.String()))
	defer sp.End()
	led := ledger.New()
	s.Capture.SetLedger(led)
	mark := s.Capture.Mark()
	op()
	s.Clock.Run()
	m := Measurement{Causes: led.Snapshot()}
	m.Up, m.Down = s.Capture.Since(mark)
	if vs := invariant.CheckLedger(m.Traffic(), m.Causes); len(vs) != 0 {
		panic(fmt.Sprintf("core: measured %s/%s: %v", s.Service, s.Access, vs))
	}
	sp.Set(obs.Int("traffic", m.Traffic()))
	return m
}

// cellOf is s's cell at param for measurement m, with TUE over update
// bytes.
func cellOf(s *service.Setup, param float64, m Measurement, update int64) Cell {
	return Cell{
		Service: s.Service, Access: s.Access, Param: param,
		Traffic: m.Traffic(), Causes: m.Causes, TUE: TUE(m.Traffic(), update),
	}
}

// must panics on a simulated operation's error: an experiment's
// operations are valid by construction.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
}

// creationSeed gives every synthetic file in an experiment distinct,
// reproducible content. The counter is atomic so stray concurrent use
// is race-free, but parallel experiment cells must NOT draw from it at
// run time — the draw order would depend on scheduling. Instead, each
// experiment reserves every seed it needs while it is still building
// its task list (sequentially), either as explicit values or as a
// seedSeq handed to the cell; the pool then only ever sees fully
// pre-seeded tasks. That is the determinism contract that makes
// workers=N byte-identical to workers=1.
var creationSeed atomic.Int64

func init() { creationSeed.Store(10_000) }

func nextSeed() int64 {
	return creationSeed.Add(1)
}

// ResetContentSeeds rewinds the global content-seed counter to its
// process-start value. A fresh tuebench process is deterministic
// because every run starts from this state; the golden-table
// regression test and the determinism tests call this so repeated
// in-process runs reproduce the shipped tables byte-for-byte.
func ResetContentSeeds() { creationSeed.Store(10_000) }

// seedSeq is a pre-reserved run of seeds for one experiment cell: the
// cell draws from its private sequence in its own deterministic order,
// no matter which worker runs it or when.
type seedSeq struct {
	next, end int64
}

// reserveSeeds claims the next n seeds from the global counter.
func reserveSeeds(n int64) *seedSeq {
	if n <= 0 {
		panic(fmt.Sprintf("core: reserveSeeds(%d)", n))
	}
	end := creationSeed.Add(n)
	return &seedSeq{next: end - n + 1, end: end}
}

// reserveFrom carves the next n seeds out of an existing reservation
// as their own sequence — for handing a sub-task its private run of
// seeds without touching the global counter.
func reserveFrom(q *seedSeq, n int64) *seedSeq {
	if n <= 0 {
		panic(fmt.Sprintf("core: reserveFrom(%d)", n))
	}
	start := q.next
	if start+n-1 > q.end {
		panic("core: seed reservation exhausted")
	}
	q.next += n
	return &seedSeq{next: start, end: start + n - 1}
}

// Next yields the sequence's next seed; exhausting the reservation is a
// bug in the reserving experiment's arithmetic.
func (q *seedSeq) Next() int64 {
	if q.next > q.end {
		panic("core: seed reservation exhausted")
	}
	v := q.next
	q.next++
	return v
}
