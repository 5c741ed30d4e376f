package core

import (
	"fmt"

	"cloudsync/internal/client"

	"cloudsync/internal/content"
	"cloudsync/internal/metrics"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
)

// ReferenceCell compares the reference design (every provider
// recommendation of the paper combined) against the measured services
// on one workload.
type ReferenceCell struct {
	Workload  string
	Reference float64 // TUE of the reference design
	Best      float64 // best commercial TUE
	BestName  string
	Worst     float64 // worst commercial TUE
	WorstName string
}

// referenceWorkload drives one scenario on a fresh setup and reports
// (traffic, data update size). seeds is how many content seeds one run
// draws; each run gets a pre-reserved sequence of exactly that length
// so runs can execute on the worker pool deterministically.
type referenceWorkload struct {
	name  string
	seeds int64
	run   func(s *service.Setup, seeds *seedSeq) (int64, int64)
}

func referenceWorkloads() []referenceWorkload {
	return []referenceWorkload{
		{"create 1 MB file", 1, func(s *service.Setup, seeds *seedSeq) (int64, int64) {
			traffic := Measure(s, func() { must(s.FS.Create("f", content.Random(1<<20, seeds.Next()))) }).Traffic()
			return traffic, 1 << 20
		}},
		{"create 1 MB text file", 1, func(s *service.Setup, seeds *seedSeq) (int64, int64) {
			traffic := Measure(s, func() { must(s.FS.Create("f", content.Text(1<<20, seeds.Next()))) }).Traffic()
			return traffic, 1 << 20
		}},
		{"100 × 1 KB batch", 100, func(s *service.Setup, seeds *seedSeq) (int64, int64) {
			traffic := Measure(s, func() {
				for i := 0; i < 100; i++ {
					must(s.FS.Create(fmt.Sprintf("b/f%03d", i), content.Random(1<<10, seeds.Next())))
				}
			}).Traffic()
			return traffic, 100 << 10
		}},
		{"modify 1 B of 1 MB", 1, func(s *service.Setup, seeds *seedSeq) (int64, int64) {
			must(s.FS.Create("f", content.Random(1<<20, seeds.Next())))
			s.Clock.Run()
			traffic := Measure(s, func() { must(s.FS.ModifyByte("f", 1<<19)) }).Traffic()
			// Reference the containing chunk, as the paper's IDS
			// discussion does: the fairest "should" is one chunk.
			return traffic, int64(8 << 10)
		}},
		{"re-upload duplicate 1 MB", 1, func(s *service.Setup, seeds *seedSeq) (int64, int64) {
			blob := content.Random(1<<20, seeds.Next())
			must(s.FS.Create("orig", blob))
			s.Clock.Run()
			traffic := Measure(s, func() { must(s.FS.Create("copy", content.Random(1<<20, blob.Seed()))) }).Traffic()
			return traffic, 1 << 20
		}},
		{"append 1 KB/s → 1 MB", 1, func(s *service.Setup, seeds *seedSeq) (int64, int64) {
			return appendCell(s, 1, seeds.Next()).Traffic, AppendTotal
		}},
		{"append 8 KB/8 s → 1 MB", 1, func(s *service.Setup, seeds *seedSeq) (int64, int64) {
			return appendCell(s, 8, seeds.Next()).Traffic, AppendTotal
		}},
	}
}

// ReferenceComparison runs every workload on the reference design and
// on the six commercial PC clients, reporting the reference TUE
// against the best and worst commercial results. All workload × setup
// runs (7 × 7) execute on the worker pool; the best/worst aggregation
// over services happens afterwards, in input order.
func ReferenceComparison() []ReferenceCell {
	workloads := referenceWorkloads()
	services := service.All()
	// Task i*(1+len(services)) is workload i on the reference design;
	// the following len(services) tasks are the commercial clients.
	type task struct {
		w     referenceWorkload
		n     service.Name
		seeds *seedSeq
	}
	var tasks []task
	for _, w := range workloads {
		tasks = append(tasks, task{w: w, n: service.Reference, seeds: reserveSeeds(w.seeds)})
		for _, n := range services {
			tasks = append(tasks, task{w: w, n: n, seeds: reserveSeeds(w.seeds)})
		}
	}
	tues := parallel.Map(tasks, func(_ int, t task) float64 {
		s := service.NewSetup(t.n, client.PC, service.Options{})
		traffic, update := t.w.run(s, t.seeds)
		return TUE(traffic, update)
	})

	out := make([]ReferenceCell, len(workloads))
	stride := 1 + len(services)
	for i, w := range workloads {
		cell := ReferenceCell{Workload: w.name, Reference: tues[i*stride]}
		for j, n := range services {
			tue := tues[i*stride+1+j]
			if j == 0 || tue < cell.Best {
				cell.Best, cell.BestName = tue, n.String()
			}
			if j == 0 || tue > cell.Worst {
				cell.Worst, cell.WorstName = tue, n.String()
			}
		}
		out[i] = cell
	}
	return out
}

// RenderReference formats the comparison.
func RenderReference(cells []ReferenceCell) string {
	tb := metrics.Table{Header: []string{"Workload", "Reference TUE", "Best service", "Worst service"}}
	for _, c := range cells {
		tb.AddRow(c.Workload, fmtTUE(c.Reference),
			fmt.Sprintf("%s (%s)", fmtTUE(c.Best), c.BestName),
			fmt.Sprintf("%s (%s)", fmtTUE(c.Worst), c.WorstName))
	}
	return "Reference design (all paper recommendations) vs. the six services (PC clients)\n" + tb.String()
}
