// Command benchjson turns `go test -bench` output into a JSON report:
// every benchmark result on stdin, sorted by name — the mode make
// bench-core uses to record the core experiment-table baseline into
// BENCH_core.json. Custom metric units (testing.B ReportMetric style,
// e.g. "123 peak-rss-bytes") are captured into each entry's "extra"
// map.
//
// With -compare OLD NEW, two reports are diffed instead: every
// benchmark present in both is checked for an allocs/op regression
// beyond tolerancePct (allocations are the tracked budget, so the
// tolerance is tight; ns/op is machine-dependent and only reported).
// Exit codes follow the tuediff convention: 0 = within tolerance, 1 =
// regression or benchmark-set drift, 2 = usage or I/O error.
//
// Usage:
//
//	go test -bench . -benchmem -benchtime 1x . | go run ./internal/obs/benchjson > BENCH_core.json
//	go run ./internal/obs/benchjson -compare [-filter RE] BENCH_core.json new.json
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

// The -compare gates: an allocs/op rise beyond tolerancePct fails, and
// so does a kernel's MB/s drop beyond thrTolerancePct — loose, since
// absolute throughput moves with the machine; it only catches falling
// off an algorithmic cliff.
const (
	tolerancePct    float64 = 10
	thrTolerancePct float64 = 50
)

// entry is one benchmark result under the benchmark's own name.
// Extra holds custom metric units ("peak-rss-bytes", "tue-dropbox",
// ...).
type entry struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Note       string  `json:"note"`
	Benchmarks []entry `json:"benchmarks"`
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
	compare := flag.Bool("compare", false,
		"compare two reports (OLD NEW file args) instead of reading stdin")
	filter := flag.String("filter", "",
		"in -compare mode, only diff benchmarks whose name matches this regexp")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *filter))
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
	emit(results)
}

// runCompare diffs two reports. allocs/op is the enforced budget: a
// benchmark whose allocation count grew more than tolerancePct over the
// old report is a regression. ns/op changes and allocation
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
func runCompare(args []string, filter string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two file arguments: OLD NEW")
		return 2
	}
	old, err := readReport(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	new_, err := readReport(args[1])
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

// readReport loads a JSON report as name → entry.
func readReport(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]entry, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// emit writes every parsed benchmark, sorted by name. Wall-clock
// figures are machine-dependent; the baseline's value is the allocation
// counts and the relative shape, not absolute nanoseconds.
func emit(results map[string]result) {
	rep := report{Note: "core experiment-table baseline (-benchtime 1x; ns/op is machine-dependent, compare shapes not absolutes)"}
	for name, r := range results {
		rep.Benchmarks = append(rep.Benchmarks, entry{
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
