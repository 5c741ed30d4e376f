package core

import (
	"fmt"
	"strconv"

	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/invariant"
	"cloudsync/internal/metrics"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
)

// This file is the "explainable TUE" experiment: instead of reporting a
// cell's sync traffic as one opaque number, it decomposes every wire
// byte into the attribution ledger's cause taxonomy (metadata, payload,
// dedup probes, delta literals/copy references, resume, retransmit,
// framing) — the paper-style answer to *why* a cell's TUE is what it
// is. Each cell's decomposition is checked on the spot: the causes must
// sum to the cell's wire traffic exactly, via the invariant harness's
// ledger-balance check.

// ExplainCell is one experiment measurement with its traffic decomposed
// by cause. Causes always sum exactly to Traffic.
type ExplainCell struct {
	Service service.Name
	Access  client.AccessMethod
	// Param is the section's swept parameter: file size in bytes for the
	// creation and modification sections, exchange-loss probability for
	// the faults section.
	Param   float64
	Causes  ledger.Snapshot
	Traffic int64
	TUE     float64
}

// explainOp builds a setup, runs the optional prelude to quiescence
// (traffic the cell does not account), then attaches a private ledger,
// runs op, and returns the decomposition of exactly the op's traffic.
// Panics if the causes do not sum to the measured wire bytes — the
// decomposition is only worth printing if it is provably complete.
func explainOp(n service.Name, a client.AccessMethod, opts service.Options,
	prelude, op func(*service.Setup)) (ledger.Snapshot, int64, *service.Setup) {
	s := newSetup(n, a, opts)
	if prelude != nil {
		prelude(s)
		s.Clock.Run()
	}
	led := &ledger.Ledger{}
	s.Capture.SetLedger(led) // replaces the global hook: this cell only
	mark := s.Capture.Mark()
	op(s)
	s.Clock.Run()
	up, down, _ := s.Capture.Since(mark)
	snap := led.Snapshot()
	if vs := invariant.CheckLedger(up+down, snap); len(vs) != 0 {
		panic(fmt.Sprintf("core: explain cell %s/%s: %v", n, a, vs))
	}
	return snap, up + down, s
}

// ExplainCreation decomposes Experiment 1 (compressed file creation,
// PC clients): where do the bytes of a fresh upload go, per service and
// size?
func ExplainCreation(sizes []int64) []ExplainCell {
	type task struct {
		n    service.Name
		size int64
		seed int64
	}
	seeds := make([]int64, len(sizes))
	for i := range sizes {
		seeds[i] = nextSeed()
	}
	var tasks []task
	for _, n := range service.All() {
		for i, size := range sizes {
			tasks = append(tasks, task{n: n, size: size, seed: seeds[i]})
		}
	}
	return parallel.Map(tasks, func(_ int, t task) ExplainCell {
		blob := content.Random(t.size, t.seed)
		snap, traffic, _ := explainOp(t.n, client.PC, service.Options{}, nil,
			func(s *service.Setup) {
				if err := s.FS.Create("file.bin", blob); err != nil {
					panic(err)
				}
			})
		return ExplainCell{
			Service: t.n, Access: client.PC, Param: float64(t.size),
			Causes: snap, Traffic: traffic, TUE: TUE(traffic, t.size),
		}
	})
}

// ExplainModification decomposes Experiment 3 (one-byte modification,
// PC clients): the delta-sync services should show the update almost
// entirely as delta copy references and metadata, while full-file
// services re-ship the payload.
func ExplainModification(sizes []int64) []ExplainCell {
	type task struct {
		n    service.Name
		size int64
		seed int64
	}
	seeds := make([]int64, len(sizes))
	for i := range sizes {
		seeds[i] = nextSeed()
	}
	var tasks []task
	for _, n := range service.All() {
		for i, size := range sizes {
			tasks = append(tasks, task{n: n, size: size, seed: seeds[i]})
		}
	}
	return parallel.Map(tasks, func(_ int, t task) ExplainCell {
		blob := content.Random(t.size, t.seed)
		snap, traffic, _ := explainOp(t.n, client.PC, service.Options{},
			func(s *service.Setup) {
				if err := s.FS.Create("target.bin", blob); err != nil {
					panic(err)
				}
			},
			func(s *service.Setup) {
				if err := s.FS.ModifyByte("target.bin", t.size/2); err != nil {
					panic(err)
				}
			})
		return ExplainCell{
			Service: t.n, Access: client.PC, Param: float64(t.size),
			Causes: snap, Traffic: traffic, TUE: TUE(traffic, 1), // one byte changed
		}
	})
}

// explainFaultFiles and explainFaultFileSize scale the fault section's
// workload down from the full fault sweep: attribution needs enough
// traffic for retransmits to show up, not a statistically smooth TUE.
const (
	explainFaultFiles    = 6
	explainFaultFileSize = int64(64 << 10)
)

// ExplainFaults decomposes the fault sweep (Dropbox PC over Beijing):
// as exchange loss grows, the retransmit cause takes over a growing
// share of an unchanged payload.
func ExplainFaults(lossProbs []float64) []ExplainCell {
	type task struct {
		prob float64
		link netem.Link
		seed int64
	}
	// One shared content-seed base: identical payloads across loss rates
	// isolate the fault schedule as the only difference between rows.
	baseSeed := reserveSeeds(explainFaultFiles).Next()
	var tasks []task
	for i, p := range lossProbs {
		link := netem.Beijing()
		if p > 0 {
			link.Faults = &netem.FaultProfile{
				Seed:     uint64(0xE0B000 + i),
				LossProb: p,
			}
		}
		tasks = append(tasks, task{prob: p, link: link, seed: baseSeed})
	}
	return parallel.Map(tasks, func(_ int, t task) ExplainCell {
		snap, traffic, _ := explainOp(service.Dropbox, client.PC,
			service.Options{Link: t.link}, nil,
			func(s *service.Setup) {
				for i := 0; i < explainFaultFiles; i++ {
					name := fmt.Sprintf("fault-%02d.bin", i)
					blob := content.Random(explainFaultFileSize, t.seed+int64(i))
					if err := s.FS.Create(name, blob); err != nil {
						panic(err)
					}
					s.Clock.Run()
				}
			})
		return ExplainCell{
			Service: service.Dropbox, Access: client.PC, Param: t.prob,
			Causes: snap, Traffic: traffic,
			TUE: TUE(traffic, explainFaultFiles*explainFaultFileSize),
		}
	})
}

// ExplainResult bundles the explain experiment's three sections.
type ExplainResult struct {
	Creation     []ExplainCell
	Modification []ExplainCell
	Faults       []ExplainCell
}

// ExplainLossProbs is the fault section's loss sweep (quick and full
// runs share it: the section is small enough already).
var ExplainLossProbs = []float64{0, 0.05, 0.20}

// ExplainAll runs every explain section. quick reduces the size sweep
// the same way the other experiments' quick mode does.
func ExplainAll(quick bool) ExplainResult {
	sizes := TableSizes
	if quick {
		sizes = QuickSizes
	}
	return ExplainResult{
		Creation:     ExplainCreation(sizes),
		Modification: ExplainModification(sizes),
		Faults:       ExplainFaults(ExplainLossProbs),
	}
}

// explainTable renders one section's cells: one row per cell, one
// column per cause, plus the total and the TUE. Every byte column is an
// exact count, so a golden of this table pins each cause to the byte.
func explainTable(cells []ExplainCell, param func(ExplainCell) string, paramHeader string) string {
	header := []string{"Service", paramHeader}
	for _, c := range ledger.Causes() {
		header = append(header, c.String())
	}
	header = append(header, "total", "TUE")
	tb := metrics.Table{Header: header}
	for _, cell := range cells {
		row := []string{cell.Service.String(), param(cell)}
		for _, c := range ledger.Causes() {
			row = append(row, strconv.FormatInt(cell.Causes.Get(c), 10))
		}
		row = append(row, strconv.FormatInt(cell.Traffic, 10), fmtTUE(cell.TUE))
		tb.AddRow(row...)
	}
	return tb.String()
}

// RenderExplain formats the decomposition sections as tables in the
// style of the paper's Table 6/Fig. 4, with causes as columns. Every
// row's causes sum exactly to its total column (asserted at measurement
// time).
func RenderExplain(res ExplainResult) string {
	size := func(c ExplainCell) string { return metrics.HumanBytes(int64(c.Param)) }
	loss := func(c ExplainCell) string { return fmt.Sprintf("%.0f%%", c.Param*100) }
	return "Explainable TUE: per-cause decomposition of sync traffic (PC clients)\n" +
		"(a) compressed file creation\n" + explainTable(res.Creation, size, "Size") +
		"(b) one-byte modification of a synced file\n" + explainTable(res.Modification, size, "Size") +
		"(c) file creations under exchange loss (Dropbox, Beijing)\n" + explainTable(res.Faults, loss, "Loss")
}
