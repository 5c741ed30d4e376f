package core

import (
	"fmt"
	"math"

	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/metrics"
	"cloudsync/internal/netem"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
)

// FaultCell is one measurement of the fault-injection sweep: the
// file-creation workload of Dropbox's PC client on one link, with Param
// the exchange-loss probability, plus the faults the link actually
// injected.
type FaultCell struct {
	Cell
	Location string
	Faults   netem.FaultStats
}

// FaultLossProbs is the default loss sweep: the clean baseline plus
// loss rates from light wireless degradation to a badly congested path.
var FaultLossProbs = []float64{0, 0.01, 0.02, 0.05, 0.10}

// QuickFaultLossProbs is a reduced sweep.
var QuickFaultLossProbs = []float64{0, 0.02, 0.10}

// faultFiles and faultFileSize define the sweep's workload: a fixed
// sequence of distinct fresh files, each synced to quiescence before
// the next is created. Unlike the appending workload, the session count
// cannot shift with link timing (no Condition-1 batching feedback), so
// any traffic difference between cells of one location is purely the
// injected faults.
const (
	faultFiles    = 24
	faultFileSize = int64(128 << 10)
)

// faultWorkload creates faultFiles distinct files on the setup, one
// sync session at a time, and measures the traffic they caused.
// baseSeed fixes every file's content, so two cells given the same
// baseSeed move byte-identical payloads.
func faultWorkload(s *service.Setup, baseSeed int64) Measurement {
	return Measure(s, func() {
		for i := 0; i < faultFiles; i++ {
			must(s.FS.Create(fmt.Sprintf("fault-%02d.bin", i), content.Random(faultFileSize, baseSeed+int64(i))))
			s.Clock.Run()
		}
	})
}

// FaultSweep measures how sync traffic overhead grows when the link is
// imperfect: Dropbox's PC client uploading a fixed series of fresh
// files over the Minnesota and Beijing vantage points with seeded
// per-exchange loss injected at each rate, plus one FaultyBeijing row
// that adds connection drops and stalls on top of the loss. All cells
// of one location share a content-seed base, so the clean baseline and
// the lossy cells move byte-identical payloads; every retransmission
// and reconnection handshake the schedule forces is charged to the
// capture, so TUE rises with the loss rate — the regime the paper's
// Fig. 7/8 can only hint at with clean shapers.
//
// Cells are pre-seeded (content seeds and fault seeds fixed at
// task-build time) and run on the worker pool.
func FaultSweep(lossProbs []float64) []FaultCell {
	type faultTask struct {
		loc  string
		link netem.Link
		prob float64
		seed int64
	}
	locations := []struct {
		name string
		link netem.Link
	}{
		{"MN", netem.Minnesota()},
		{"BJ", netem.Beijing()},
	}
	var tasks []faultTask
	for _, loc := range locations {
		// One reservation per location, shared by all its loss cells:
		// identical content isolates the fault schedule as the only
		// difference between a location's rows.
		baseSeed := reserveSeeds(faultFiles).Next()
		for _, p := range lossProbs {
			link := loc.link
			if p > 0 {
				link.Faults = &netem.FaultProfile{
					// The fault seed is a pure function of the loss
					// rate, so a rate's schedule is reproducible, the
					// same in every sweep that has the rate, and
					// independent of the content-seed counter.
					Seed:     0xFA0000 ^ math.Float64bits(p),
					LossProb: p,
				}
			}
			tasks = append(tasks, faultTask{loc: loc.name, link: link, prob: p, seed: baseSeed})
		}
	}
	// The showcase row: Beijing with the full fault profile (loss +
	// drops + stalls).
	full := netem.FaultyBeijing()
	tasks = append(tasks, faultTask{
		loc: "BJ+faults", link: full, prob: full.Faults.LossProb,
		seed: reserveSeeds(faultFiles).Next(),
	})

	return parallel.Map(tasks, func(_ int, t faultTask) FaultCell {
		s := service.NewSetup(service.Dropbox, client.PC, service.Options{Link: t.link})
		return FaultCell{
			Cell:     cellOf(s, t.prob, faultWorkload(s, t.seed), faultFiles*faultFileSize),
			Location: t.loc,
			Faults:   s.Path.FaultStats(),
		}
	})
}

// RenderFaultSweep formats the fault-injection sweep.
func RenderFaultSweep(cells []FaultCell) string {
	tb := metrics.Table{Header: []string{"Link", "Loss", "TUE", "Retransmits", "Drops", "Stalls"}}
	for _, c := range cells {
		tb.AddRow(c.Location,
			lossPercent(c.Param),
			fmtTUE(c.TUE),
			fmt.Sprintf("%d", c.Faults.Retransmits),
			fmt.Sprintf("%d", c.Faults.Drops),
			fmt.Sprintf("%d", c.Faults.Stalls))
	}
	return fmt.Sprintf("Fault injection: Dropbox uploading %d x %d KB files, TUE vs exchange loss x link\n",
		faultFiles, faultFileSize>>10) + tb.String()
}

// lossPercent renders a loss probability as the fault tables print it.
func lossPercent(p float64) string { return fmt.Sprintf("%.0f%%", p*100) }
