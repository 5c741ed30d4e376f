package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// printResult writes one run's readable summary.
func printResult(w io.Writer, r *result) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT: " + r.Error
	}
	fmt.Fprintf(w, "%s [%s] seed %d: %d ops (%d failed) in %.2f s, %d files, wire %d B / user %d B — %s\n",
		r.Workload, r.Pass, r.Seed, r.Attempted, r.Failed, r.MeasuredS, r.Files, r.WireBytes, r.UserBytes, verdict)
	if r.Pass == "e2e" {
		for _, d := range endToEnd {
			line := fmt.Sprintf("  %-14s %14.4f %-6s", d.Name, r.Metrics[d.Name].Value, d.Unit)
			if s, ok := r.Rounds[d.Name]; ok {
				line += fmt.Sprintf("  (median of %d rounds, min %.4f, max %.4f)", len(s.Rounds), s.Min, s.Max)
			}
			fmt.Fprintln(w, line)
		}
		return
	}
	for _, d := range perLayer {
		if v := r.Metrics[d.Name].Value; v != 0 {
			fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	printSpans(w, r.Spans)
	fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
}

// printSpans prints the traced pass's span table. Layer spans are
// leaves, so their self time is their duration; the syncnet.call rows
// are the real calls the layer rows decompose, and bench.op's self time
// (op − children) is the benchmark's own bookkeeping.
func printSpans(w io.Writer, spans map[string]layerAgg) {
	var callNS, childNS int64
	names := make([]string, 0, len(spans))
	for name, a := range spans {
		names = append(names, name)
		if strings.HasPrefix(name, spanCall) {
			callNS += a.NS
		}
		if name != spanOp {
			childNS += a.NS
		}
	}
	slices.SortFunc(names, func(a, b string) int { return int(spans[b].NS - spans[a].NS) })
	fmt.Fprintf(w, "  %-34s %9s %12s %10s %8s\n", "span", "count", "self ms", "us/span", "% call")
	for _, name := range names {
		a := spans[name]
		self := a.NS
		if name == spanOp {
			self = a.NS - childNS
		}
		fmt.Fprintf(w, "  %-34s %9d %12.2f %10.2f %7.1f%%\n", name, a.Count,
			float64(self)/1e6, ratio(float64(self)/1e3, float64(a.Count)), 100*ratio(float64(self), float64(callNS)))
	}
}

// childRun re-executes this binary for one workload and pass — each
// workload is measured in a fresh process, so one workload's heap,
// caches and high-water mark never leak into the next — and returns the
// result file the child wrote.
func childRun(cfg runConfig, workload string, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s [%s]: %w", workload, passName(traced), err)
	}
	// Everything but the child's environment echo and contract line.
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.HasPrefix(line, "env:") && !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	raw, err := os.ReadFile(resultPath(cfg.outDir, workload, passName(traced)))
	if err != nil {
		return nil, err
	}
	res := new(result)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runSet is one run-set: every workload's end-to-end pass and, when
// asked, its per-layer pass.
type runSet struct {
	Seed   int64              `json:"seed"`
	E2E    map[string]*result `json:"e2e"`
	Layers map[string]*result `json:"layers,omitempty"`
}

func (s *runSet) correct() bool {
	for _, m := range []map[string]*result{s.E2E, s.Layers} {
		for _, r := range m {
			if !r.Correct {
				return false
			}
		}
	}
	return true
}

func measureSet(cfg runConfig, withLayers bool) (*runSet, error) {
	set := &runSet{Seed: cfg.seed, E2E: make(map[string]*result)}
	if withLayers {
		set.Layers = make(map[string]*result)
	}
	for _, w := range workloads {
		res, err := childRun(cfg, w.name, false)
		if err != nil {
			return nil, err
		}
		set.E2E[w.name] = res
		if withLayers {
			if res, err = childRun(cfg, w.name, true); err != nil {
				return nil, err
			}
			set.Layers[w.name] = res
		}
	}
	return set, nil
}

// resultsFile is bench/out/results.json.
type resultsFile struct {
	Env      environment `json:"env"`
	EndToEnd []metricDef `json:"end_to_end"`
	Sets     []*runSet   `json:"sets"`
}

func printE2ETable(w io.Writer, set *runSet) {
	fmt.Fprintf(w, "\n%-15s", "end to end")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %18s", d.Name+" ["+d.Unit+"]")
	}
	fmt.Fprintf(w, " %10s %8s\n", "attempted", "failed")
	for _, wl := range workloads {
		r := set.E2E[wl.name]
		fmt.Fprintf(w, "%-15s", wl.name)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %18.4f", r.Metrics[d.Name].Value)
		}
		fmt.Fprintf(w, " %10d %8d\n", r.Attempted, r.Failed)
	}
}

// runAll measures one run-set and writes results.json. It exits 1 when
// any correctness check failed.
func runAll(cfg runConfig, withLayers bool) int {
	env := readEnv(cfg)
	env.print(os.Stdout)
	set, err := measureSet(cfg, withLayers)
	if err != nil {
		return fail(err)
	}
	printE2ETable(os.Stdout, set)
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), resultsFile{env, endToEnd, []*runSet{set}}); err != nil {
		return fail(err)
	}
	if !set.correct() {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

// sameWork reports whether two runs of one workload on one seed did the
// same work: equal operation, file and user-byte counts, and wire bytes
// equal to within 0.1 % — not exactly, because file IDs come from one
// server-wide counter, so how the two clients interleave decides which
// IDs need a second varint byte.
func sameWork(a, b *result) bool {
	return a.Attempted == b.Attempted && a.Files == b.Files && a.UserBytes == b.UserBytes &&
		math.Abs(float64(a.WireBytes-b.WireBytes)) <= 1e-3*float64(a.WireBytes)
}

// runSelfcheck measures the full set twice on one seed and once on the
// next, prints them side by side, and exits 1 if the two same-seed sets
// disagree on any end-to-end metric by more than its bound or did not
// do the same work, if the other seed changed an operation or file
// count (it may only change bytes), if any operation failed, or if any
// check failed.
func runSelfcheck(cfg runConfig) int {
	env := readEnv(cfg)
	env.print(os.Stdout)
	var sets []*runSet
	for i, seed := range []int64{cfg.seed, cfg.seed, cfg.seed + 1} {
		fmt.Printf("\n== run-set %d (seed %d) ==\n", i+1, seed)
		c := cfg
		c.seed = seed
		set, err := measureSet(c, false)
		if err != nil {
			return fail(err)
		}
		printE2ETable(os.Stdout, set)
		sets = append(sets, set)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), resultsFile{env, endToEnd, sets}); err != nil {
		return fail(err)
	}

	ok := true
	fmt.Printf("\n%-15s %-12s %14s %14s %8s %6s  %14s %8s\n",
		"workload", "metric", "set 1", "set 2", "diff", "bound", "set 3 (seed+1)", "diff")
	for _, wl := range workloads {
		a, b, c := sets[0].E2E[wl.name], sets[1].E2E[wl.name], sets[2].E2E[wl.name]
		for _, d := range endToEnd {
			va, vb, vc := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, c.Metrics[d.Name].Value
			diff := math.Abs(d.worsening(va, vb))
			mark := ""
			if d.regressed(va, vb) || d.regressed(vb, va) { // either set may be the worse one
				mark, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-15s %-12s %14.4f %14.4f %7.2f%% %5.1f%%  %14.4f %7.2f%%%s\n",
				wl.name, d.Name, va, vb, 100*diff, 100*d.Bound, vc, 100*math.Abs(d.worsening(va, vc)), mark)
		}
	}
	for _, wl := range workloads {
		a, b, c := sets[0].E2E[wl.name], sets[1].E2E[wl.name], sets[2].E2E[wl.name]
		if !sameWork(a, b) {
			fmt.Printf("%s: same seed, different work: ops %d/%d, files %d/%d, user bytes %d/%d, wire bytes %d/%d\n",
				wl.name, a.Attempted, b.Attempted, a.Files, b.Files, a.UserBytes, b.UserBytes, a.WireBytes, b.WireBytes)
			ok = false
		}
		if a.Attempted != c.Attempted || a.Files != c.Files {
			fmt.Printf("%s: seed %d did %d ops on %d files, seed %d did %d on %d\n",
				wl.name, a.Seed, a.Attempted, a.Files, c.Seed, c.Attempted, c.Files)
			ok = false
		}
	}
	for i, set := range sets {
		if !set.correct() {
			fmt.Printf("run-set %d: a correctness check or operation failed\n", i+1)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	fmt.Println("selfcheck: the two same-seed sets agree within every bound and did the same work; op counts hold on seed+1; no operation failed")
	return 0
}
