package main

import (
	"flag"
	"fmt"
	"os"

	"cloudsync/internal/core"
	"cloudsync/internal/parallel"
	"cloudsync/internal/trace"
)

// runScale is the `tuebench scale` mode: replay the trace at an N×
// synthetic user population on the worker pool and report wall time,
// heap allocation, peak RSS, and per-service TUE stability against the
// 1× baseline (replayed first, under the same per-account semantics).
func runScale(args []string) {
	fs := flag.NewFlagSet("tuebench scale", flag.ExitOnError)
	var (
		n       = fs.Int("n", 8, "user-population multiplier")
		scale   = fs.Float64("scale", 0.01, "trace scale (1.0 = full 222,632 files)")
		seed    = fs.Int64("seed", 1, "trace generation seed")
		workers = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS; 1 = sequential)")
	)
	fs.Parse(args)
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "tuebench scale: -n %d must be >= 1\n", *n)
		os.Exit(2)
	}
	parallel.SetWorkers(*workers)

	recs := trace.Generate(trace.GenConfig{Seed: *seed, Scale: *scale})
	base := core.ScaleReplay(recs, 1)
	scaled := base
	if *n > 1 {
		scaled = core.ScaleReplay(recs, *n)
	}

	fmt.Print(core.RenderScale(base, scaled))

	for i, sr := range scaled.Services {
		if sr.TUE != base.Services[i].TUE {
			fmt.Fprintf(os.Stderr, "tuebench scale: TUE drift on %s: n=1 %v vs n=%d %v\n",
				sr.Service, base.Services[i].TUE, scaled.Multiplier, sr.TUE)
			os.Exit(1)
		}
	}
}
