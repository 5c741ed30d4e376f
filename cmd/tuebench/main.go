// Command tuebench regenerates every table and figure of "Towards
// Network-level Efficiency for Cloud Storage Services" (IMC 2014) from
// the simulation and prints them as text tables.
//
// Usage:
//
//	tuebench                     # run everything (full parameter sweeps)
//	tuebench -quick              # reduced sweeps
//	tuebench -experiment fig6    # one artifact
//	tuebench -workers 8          # experiment worker-pool size (1 = sequential)
//	tuebench -list               # list artifact names
//	tuebench -trace out.json     # Chrome trace of per-cell runtimes
//	tuebench -cell modify,dropbox,pc,1048576   # one cell, by cause
//	tuebench scale -n 8          # N× user-population scale replay
//
// The scale subcommand replays the trace with every user as an
// independent account (all accounts of one service sharing one sharded
// cloud) at 1× and N× the user population, checks per-service TUE is
// identical at both multiples, and reports wall time, allocations, and
// peak RSS as benchmark lines.
//
// -trace records one span per simulated experiment cell (wall-clock
// timed, so the trace shows where regeneration time goes across the
// worker pool) and writes Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto. Tracing never changes the tables.
//
// -experiment explain is the decomposition artifact: it decomposes the
// cells of Experiment 1 (Table 6, PC clients), Experiment 3 (Fig. 4's
// one-byte modification at Table 6's sizes, PC clients) and the fault
// sweep, splitting each cell's sync traffic into the attribution
// ledger's causes (metadata, payload, dedup probes, delta literals/copy
// references, resume, retransmit, framing) as exact byte counts,
// asserted to sum to the cell's wire bytes.
//
// -cell op,service,access,param[,bj] measures one cell of a simple
// experiment through the experiment's own cell body and prints it as
// one explain row. op is create (Table 6), delete (Experiment 2),
// modify (Fig. 4), download (Table 8's second phase), append (Fig. 6)
// or batch (Table 7); param is the file size in bytes, the append
// period X in seconds (1 MB appended in all), or the number of 1 KB
// files for batch; bj runs it from Beijing, as Fig. 7 does. With
// -trace, the cell's span tree (sync rounds, sessions, network
// activity, on the simulation's virtual clock) is written as Chrome
// trace_event JSON and printed under the row as text.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cloudsync/internal/core"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
	"cloudsync/internal/trace"
)

type experiment struct {
	name string
	desc string
	run  func(cfg config) string
}

type config struct {
	quick bool
	scale float64
	seed  int64
}

func (c config) sizes() []int64 {
	if c.quick {
		return core.QuickSizes
	}
	return core.PaperSizes
}

// tableSizes are the sizes Table 6 prints, and explain decomposes.
func (c config) tableSizes() []int64 {
	if c.quick {
		return core.QuickSizes
	}
	return core.TableSizes
}

// lossProbs is the fault sweep's loss sweep, which explain decomposes
// too.
func (c config) lossProbs() []float64 {
	if c.quick {
		return core.QuickFaultLossProbs
	}
	return core.FaultLossProbs
}

func (c config) xs() []float64 {
	if c.quick {
		return core.QuickXs()
	}
	return core.PaperXs()
}

func (c config) trace() []trace.Record {
	return trace.Generate(trace.GenConfig{Seed: c.seed, Scale: c.scale})
}

var experiments = []experiment{
	{"fig2", "trace size CDFs (Fig. 2)", func(c config) string {
		points, orig, comp := core.Fig2(c.trace())
		return core.RenderFig2(points, orig, comp)
	}},
	{"findings", "trace statistics vs the paper (§§ 4-5)", func(c config) string {
		return core.RenderFindings(trace.Analyze(c.trace()))
	}},
	{"table2", "users and files per service in the trace (Table 2)", func(c config) string {
		return core.RenderTable2(trace.PerServiceCounts(c.trace()))
	}},
	{"table6", "file-creation traffic (Table 6)", func(c config) string {
		sizes := c.tableSizes()
		return core.RenderTable6(core.Experiment1(sizes), sizes)
	}},
	{"fig3", "TUE vs file size, PC clients (Fig. 3)", func(c config) string {
		return core.RenderFig3(core.Experiment1PC(c.sizes()))
	}},
	{"table7", "100×1KB batched creation / BDS detection (Table 7)", func(c config) string {
		return core.RenderTable7(core.Experiment1Batch())
	}},
	{"exp2", "file-deletion traffic (Experiment 2)", func(c config) string {
		sizes := []int64{1 << 10, 1 << 20, 10 << 20}
		if c.quick {
			sizes = []int64{1 << 20}
		}
		return core.RenderExp2(core.Experiment2(sizes))
	}},
	{"fig4", "one-byte modification traffic (Fig. 4)", func(c config) string {
		sizes := []int64{1 << 10, 10 << 10, 100 << 10, 1 << 20}
		if c.quick {
			sizes = []int64{10 << 10, 1 << 20}
		}
		return core.RenderFig4(core.Experiment3(sizes))
	}},
	{"table8", "10MB text creation+download / compression (Table 8)", func(c config) string {
		size := int64(10 << 20)
		if c.quick {
			size = 2 << 20
		}
		out := core.RenderTable8(core.Experiment4(size))
		return out + fmt.Sprintf("(best-effort compression of the text corpus: %.2f of original)\n",
			core.TextIdealRatio(size))
	}},
	{"table9", "deduplication granularity via Algorithm 1 (Table 9)", func(c config) string {
		return core.RenderTable9(core.Experiment5())
	}},
	{"fig5", "dedup ratio vs block size, trace-driven (Fig. 5)", func(c config) string {
		return core.RenderFig5(core.Fig5(c.trace()))
	}},
	{"fig6", "X KB/X sec appends, all services (Fig. 6)", func(c config) string {
		return core.RenderFig6(core.Experiment6(service.All(), c.xs()), service.All())
	}},
	{"defer", "fixed-deferment inference (§ 6.1)", func(c config) string {
		measured := map[service.Name]time.Duration{}
		for _, d := range core.InferDeferments(service.All()) {
			if d.Detected {
				measured[d.Service] = d.Delay
			}
		}
		return core.RenderDeferments(measured)
	}},
	{"asd", "ASD vs fixed deferment vs UDS (§ 6.1)", func(c config) string {
		xs := []float64{5, 6, 8, 10, 15, 20}
		if c.quick {
			xs = []float64{6, 10}
		}
		return core.RenderPolicies(core.ASDEvaluation(service.GoogleDrive, xs))
	}},
	{"fig7", "Minnesota vs Beijing (Fig. 7)", func(c config) string {
		svcs := []service.Name{service.OneDrive, service.Box, service.Dropbox}
		return core.RenderFig7(core.Experiment7(svcs, c.xs()))
	}},
	{"fig8a", "bandwidth sweep, Dropbox 1KB/s (Fig. 8a)", func(c config) string {
		return core.RenderFig8ab(core.Fig8a(core.Fig8aBandwidths), "bandwidth")
	}},
	{"fig8b", "latency sweep, Dropbox 1KB/s (Fig. 8b)", func(c config) string {
		return core.RenderFig8ab(core.Fig8b(core.Fig8bLatencies), "latency")
	}},
	{"fig8c", "hardware sweep, Dropbox (Fig. 8c)", func(c config) string {
		return core.RenderFig8c(core.Fig8c(c.xs()))
	}},
	{"reference", "reference design (all recommendations) vs services", func(c config) string {
		return core.RenderReference(core.ReferenceComparison())
	}},
	{"midlayer", "REST mid-layer ablation (§ 4.3)", func(c config) string {
		return core.RenderMidLayer(core.MidLayerAblation(4<<20, 50))
	}},
	{"compdedup", "compression × dedup ablation (§ 5.2)", func(c config) string {
		return core.RenderCompressDedup(core.CompressDedupAblation(c.trace(), 4<<20))
	}},
	{"replay", "trace replay under every service + cost estimate", func(c config) string {
		scale := c.scale
		if scale > 0.05 {
			scale = 0.05 // the engine replay needs no more for stable ratios
		}
		recs := trace.Generate(trace.GenConfig{Seed: c.seed, Scale: scale})
		return core.RenderReplay(core.TraceReplayAll(recs, 1/scale))
	}},
	{"reliability", "resumable vs restart uploads on flaky links", func(c config) string {
		size := int64(64 << 20)
		if c.quick {
			size = 16 << 20
		}
		mtbfs := []time.Duration{30 * time.Second, time.Minute, 5 * time.Minute, 30 * time.Minute}
		return core.RenderReliability(
			core.ReliabilityAblation(size, netem.Beijing(), 4<<20, mtbfs), size)
	}},
	{"chunking", "fixed vs content-defined chunking vs rsync on insertions", func(c config) string {
		versions, size, edit := 10, int64(2<<20), 1024
		if c.quick {
			versions, size = 4, 512<<10
		}
		return core.RenderChunking(core.ChunkingAblation(versions, size, edit), versions, size, edit)
	}},
	{"faults", "TUE under injected exchange loss x link (fault injection)", func(c config) string {
		return core.RenderFaultSweep(core.FaultSweep(c.lossProbs()))
	}},
	{"explain", "per-cause traffic decomposition / explainable TUE", func(c config) string {
		sizes := c.tableSizes()
		return core.RenderExplain(core.Experiment1(sizes), core.Experiment3(sizes), core.FaultSweep(c.lossProbs()))
	}},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scale" {
		runScale(os.Args[2:])
		return
	}
	var (
		name     = flag.String("experiment", "all", "artifact to regenerate (see -list)")
		quick    = flag.Bool("quick", false, "reduced parameter sweeps")
		scale    = flag.Float64("scale", 0.05, "trace scale (1.0 = full 222,632 files)")
		seed     = flag.Int64("seed", 1, "trace generation seed")
		workers  = flag.Int("workers", 0, "experiment worker-pool size (0 = GOMAXPROCS; 1 = sequential)")
		list     = flag.Bool("list", false, "list artifact names and exit")
		traceOut = flag.String("trace", "", "write a Chrome trace_event file of per-cell runtimes (with -cell: of the cell's virtual-clock spans)")
		cell     = flag.String("cell", "", "measure one cell, "+cellUsage+" (see the package doc)")
	)
	flag.Parse()
	parallel.SetWorkers(*workers)
	if *cell != "" {
		if err := runCell(os.Stdout, *cell, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "tuebench: %v\n", err)
			os.Exit(2)
		}
		return
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		core.SetTracer(tracer)
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	cfg := config{quick: *quick, scale: *scale, seed: *seed}

	selected := map[string]bool{}
	for _, n := range strings.Split(*name, ",") {
		selected[strings.TrimSpace(n)] = true
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	for n := range selected {
		if n != "all" && !known[n] {
			var names []string
			for _, e := range experiments {
				names = append(names, e.name)
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "tuebench: unknown experiment %q (known: %s)\n",
				n, strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if !selected[e.name] && !selected["all"] {
			continue
		}
		t0 := time.Now()
		out := e.run(cfg)
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	fmt.Printf("regenerated %d artifact(s) in %v (%d worker(s))\n",
		ran, time.Since(start).Round(time.Millisecond), parallel.Workers())

	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "tuebench: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTrace writes tracer's spans to path as Chrome trace_event JSON.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteMergedChromeTrace(f, obs.Merge(tracer.Dump("tuebench"))); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tuebench: trace written to %s (%d spans; open in chrome://tracing or Perfetto)\n",
		path, len(tracer.Spans()))
	return nil
}
