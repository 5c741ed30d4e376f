// Command benchjson turns `go test -bench` output into a small JSON
// overhead report. It pairs benchmarks named <Base>Off / <Base>On —
// the convention the observability benchmarks use for uninstrumented
// vs instrumented runs — and computes the relative overhead of each
// pair. make bench-obs pipes the obs and syncnet benchmarks through it
// into BENCH_obs.json.
//
// With -raw, pairing is skipped and every benchmark result on stdin is
// emitted as-is — the mode make bench-core uses to record the core
// experiment-table baseline into BENCH_core.json. Custom metric units
// (testing.B ReportMetric style, e.g. "123 peak-rss-bytes") are
// captured into each entry's "extra" map.
//
// With -compare OLD NEW, two -raw reports are diffed instead: every
// benchmark present in both is checked for allocs/op and ns/op
// regressions beyond -tolerance-pct (allocations are the tracked
// budget, so the default tolerance for them is tight; ns/op is
// machine-dependent and only reported). Exit codes follow the tuediff
// convention: 0 = within tolerance, 1 = regression or benchmark-set
// drift, 2 = usage or I/O error.
//
// Usage:
//
//	go test -bench 'ObsO(ff|n)$' -benchmem ./... | go run ./internal/obs/benchjson > BENCH_obs.json
//	go test -bench . -benchmem -benchtime 1x . | go run ./internal/obs/benchjson -raw > BENCH_core.json
//	go run ./internal/obs/benchjson -compare BENCH_core.json new.json -tolerance-pct 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	nsPerOp     float64
	allocsPerOp int64
	bytesPerOp  int64
	extra       map[string]float64
}

// pair is the JSON record for one Off/On benchmark pair. OverheadPct
// is (on−off)/off in percent; negative values mean the difference is
// below measurement noise.
type pair struct {
	Name        string  `json:"name"`
	OffNsPerOp  float64 `json:"off_ns_per_op"`
	OnNsPerOp   float64 `json:"on_ns_per_op"`
	OffAllocs   int64   `json:"off_allocs_per_op"`
	OnAllocs    int64   `json:"on_allocs_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
}

type report struct {
	Note  string `json:"note"`
	Pairs []pair `json:"pairs"`
}

// rawEntry is one benchmark result in -raw mode: no Off/On pairing,
// just the measured figures under the benchmark's own name. Extra
// holds custom metric units ("peak-rss-bytes", "tue-dropbox", ...).
type rawEntry struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type rawReport struct {
	Note       string     `json:"note"`
	Benchmarks []rawEntry `json:"benchmarks"`
}

// parseLine extracts a benchmark result from one `go test -bench`
// output line, e.g.
//
//	BenchmarkSpanObsOn-8   1000000   1050 ns/op   320 B/op   3 allocs/op
func parseLine(line string) (name string, r result, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", result{}, false
	}
	name = strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	for i := 2; i+1 < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.nsPerOp = v
			ok = true
		case "allocs/op":
			r.allocsPerOp = int64(v)
		case "B/op":
			r.bytesPerOp = int64(v)
		case "MB/s":
			// SetBytes throughput: recorded as an extra so kernel
			// benchmarks can be gated on MB/s in -compare mode.
			if r.extra == nil {
				r.extra = make(map[string]float64)
			}
			r.extra["mb-per-sec"] = v
		default:
			// A custom metric unit (testing.B ReportMetric convention):
			// all-lowercase with dashes, to avoid swallowing stray prose.
			if unit == strings.ToLower(unit) && !strings.ContainsAny(unit, "/:;,.") {
				if r.extra == nil {
					r.extra = make(map[string]float64)
				}
				r.extra[unit] = v
			}
		}
	}
	return name, r, ok
}

func main() {
	raw := flag.Bool("raw", false,
		"emit every benchmark result as-is instead of pairing <Base>Off/<Base>On")
	compare := flag.Bool("compare", false,
		"compare two -raw reports (OLD NEW file args) instead of reading stdin")
	tolerance := flag.Float64("tolerance-pct", 10,
		"allowed allocs/op regression in -compare mode, percent")
	thrTolerance := flag.Float64("throughput-tolerance-pct", 50,
		"allowed mb-per-sec drop in -compare mode, percent (loose: absolute throughput is machine-dependent)")
	filter := flag.String("filter", "",
		"in -compare mode, only diff benchmarks whose name matches this regexp")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *tolerance, *thrTolerance, *filter))
	}

	results := map[string]result{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			results[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *raw {
		emitRaw(results)
		return
	}

	rep := report{Note: "observability overhead: <Base>Off = nil tracer/registry, <Base>On = instrumented"}
	for name, off := range results {
		base, found := strings.CutSuffix(name, "Off")
		if !found {
			continue
		}
		on, ok := results[base+"On"]
		if !ok {
			continue
		}
		rep.Pairs = append(rep.Pairs, pair{
			Name:        base,
			OffNsPerOp:  off.nsPerOp,
			OnNsPerOp:   on.nsPerOp,
			OffAllocs:   off.allocsPerOp,
			OnAllocs:    on.allocsPerOp,
			OverheadPct: (on.nsPerOp - off.nsPerOp) / off.nsPerOp * 100,
		})
	}
	if len(rep.Pairs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no Off/On benchmark pairs on stdin")
		os.Exit(1)
	}
	sort.Slice(rep.Pairs, func(i, j int) bool { return rep.Pairs[i].Name < rep.Pairs[j].Name })

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// runCompare diffs two -raw reports. allocs/op is the enforced budget:
// a benchmark whose allocation count grew more than tolerancePct over
// the old report is a regression. ns/op changes and allocation
// improvements are reported but never fail. Kernel entries (a
// "mb-per-sec" extra from SetBytes on both sides) are additionally gated on
// throughput with the looser thrTolerancePct, since absolute MB/s moves
// with the machine but a kernel falling to a fraction of its baseline
// is an algorithmic regression on any hardware. A non-empty filter
// regexp restricts the diff to matching names, so a kernel-only re-run
// can be compared against a full baseline without the missing entries
// reading as drift. Benchmarks present in only one report are drift
// too — a renamed or dropped benchmark silently invalidates the
// baseline. Returns the process exit code: 0 within tolerance, 1
// regression/drift, 2 usage or I/O error.
func runCompare(args []string, tolerancePct, thrTolerancePct float64, filter string) int {
	// The flag package stops at the first positional argument, so
	// accept the option flags after the file pair too.
	var files []string
	for i := 0; i < len(args); i++ {
		if !strings.HasPrefix(args[i], "-") {
			files = append(files, args[i])
			continue
		}
		name := strings.TrimLeft(args[i], "-")
		if name != "tolerance-pct" && name != "throughput-tolerance-pct" && name != "filter" {
			files = append(files, args[i])
			continue
		}
		if i+1 >= len(args) {
			fmt.Fprintf(os.Stderr, "benchjson: -%s needs a value\n", name)
			return 2
		}
		i++
		if name == "filter" {
			filter = args[i]
			continue
		}
		v, err := strconv.ParseFloat(args[i], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -%s %q\n", name, args[i])
			return 2
		}
		if name == "tolerance-pct" {
			tolerancePct = v
		} else {
			thrTolerancePct = v
		}
	}
	args = files
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two file arguments: OLD NEW")
		return 2
	}
	old, err := readRawReport(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	new_, err := readRawReport(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -filter %q: %v\n", filter, err)
			return 2
		}
		for name := range old {
			if !re.MatchString(name) {
				delete(old, name)
			}
		}
		for name := range new_ {
			if !re.MatchString(name) {
				delete(new_, name)
			}
		}
	}

	oldNames := make([]string, 0, len(old))
	for name := range old {
		oldNames = append(oldNames, name)
	}
	sort.Strings(oldNames)

	exit := 0
	for _, name := range oldNames {
		o := old[name]
		n, ok := new_[name]
		if !ok {
			fmt.Printf("DRIFT   %-40s missing from %s\n", name, args[1])
			exit = 1
			continue
		}
		if o.Extra["mb-per-sec"] > 0 && n.Extra["mb-per-sec"] > 0 {
			// A data-plane kernel with SetBytes throughput: gate the MB/s
			// drop (loosely — absolute throughput is machine-dependent,
			// the gate exists to catch falling off the algorithmic cliff),
			// then fall through to the allocation budget below.
			oldMBs, newMBs := o.Extra["mb-per-sec"], n.Extra["mb-per-sec"]
			dropPct := (oldMBs - newMBs) / oldMBs * 100
			switch {
			case dropPct > thrTolerancePct:
				fmt.Printf("REGRESS %-40s MB/s %.0f → %.0f (-%.1f%% > %.1f%%)\n",
					name, oldMBs, newMBs, dropPct, thrTolerancePct)
				exit = 1
			case dropPct < 0:
				fmt.Printf("improve %-40s MB/s %.0f → %.0f (+%.1f%%)\n",
					name, oldMBs, newMBs, -dropPct)
			default:
				fmt.Printf("ok      %-40s MB/s %.0f → %.0f (-%.1f%%)\n",
					name, oldMBs, newMBs, dropPct)
			}
		}
		switch {
		case o.AllocsPerOp == 0 && n.AllocsPerOp == 0:
			fmt.Printf("ok      %-40s 0 allocs/op in both\n", name)
		case o.AllocsPerOp == 0:
			fmt.Printf("REGRESS %-40s allocs/op 0 → %d\n", name, n.AllocsPerOp)
			exit = 1
		default:
			pct := float64(n.AllocsPerOp-o.AllocsPerOp) / float64(o.AllocsPerOp) * 100
			switch {
			case pct > tolerancePct:
				fmt.Printf("REGRESS %-40s allocs/op %d → %d (%+.1f%% > %.1f%%)\n",
					name, o.AllocsPerOp, n.AllocsPerOp, pct, tolerancePct)
				exit = 1
			case pct < 0:
				fmt.Printf("improve %-40s allocs/op %d → %d (%.1f%%)\n",
					name, o.AllocsPerOp, n.AllocsPerOp, pct)
			default:
				fmt.Printf("ok      %-40s allocs/op %d → %d (%+.1f%%)\n",
					name, o.AllocsPerOp, n.AllocsPerOp, pct)
			}
		}
	}
	newNames := make([]string, 0, len(new_))
	for name := range new_ {
		if _, ok := old[name]; !ok {
			newNames = append(newNames, name)
		}
	}
	sort.Strings(newNames)
	for _, name := range newNames {
		fmt.Printf("DRIFT   %-40s new benchmark, not in %s\n", name, args[0])
		exit = 1
	}
	return exit
}

// readRawReport loads a -raw JSON report as name → entry.
func readRawReport(path string) (map[string]rawEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep rawReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]rawEntry, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// emitRaw writes every parsed benchmark, sorted by name. Wall-clock
// figures are machine-dependent; the baseline's value is the allocation
// counts and the relative shape, not absolute nanoseconds.
func emitRaw(results map[string]result) {
	rep := rawReport{Note: "core experiment-table baseline (-benchtime 1x; ns/op is machine-dependent, compare shapes not absolutes)"}
	for name, r := range results {
		rep.Benchmarks = append(rep.Benchmarks, rawEntry{
			Name:        name,
			NsPerOp:     r.nsPerOp,
			AllocsPerOp: r.allocsPerOp,
			BytesPerOp:  r.bytesPerOp,
			Extra:       r.extra,
		})
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
