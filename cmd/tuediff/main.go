// Command tuediff compares two traffic-attribution ledger dumps
// produced by `tuebench -ledger-out` and flags per-cause drift: cells
// that appeared or vanished, and causes whose byte counts moved beyond
// the tolerance. Exit status 1 means drift was found, 2 means the
// inputs could not be read. It is how to read a TestLedgerDumpGolden
// failure: dump the build's attribution and diff it against the
// committed golden:
//
//	tuebench -quick -ledger-out new.json
//	tuediff cmd/tuebench/testdata/ledger-quick.golden.json new.json
//
// Tolerances default to zero (any byte of drift fails); loosen with
//
//	tuediff -tolerance-bytes 64 -tolerance-pct 1 old.json new.json
//
// A cause passes if it is within EITHER tolerance, so -tolerance-pct
// alone still permits small absolute wobbles on tiny cells only when
// -tolerance-bytes allows them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"cloudsync/internal/obs/ledger"
)

// dump mirrors tuebench's -ledger-out shape. The cause map is decoded
// through ledger.Snapshot, so an unknown cause name in either file is a
// read error, not silent drift.
type dump struct {
	Cells map[string]struct {
		Causes  ledger.Snapshot `json:"causes"`
		Traffic int64           `json:"traffic"`
	} `json:"cells"`
}

func readDump(path string) (dump, error) {
	var d dump
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Cells) == 0 {
		return d, fmt.Errorf("%s: no cells (not a tuebench -ledger-out dump?)", path)
	}
	return d, nil
}

// withinTolerance reports whether a cause's move from old to new bytes
// is acceptable under either the absolute or the relative bound.
func withinTolerance(old, new, tolBytes int64, tolPct float64) bool {
	delta := new - old
	if delta < 0 {
		delta = -delta
	}
	if delta <= tolBytes {
		return true
	}
	if tolPct > 0 && old > 0 {
		return float64(delta)/float64(old)*100 <= tolPct
	}
	return false
}

func main() {
	var (
		tolBytes = flag.Int64("tolerance-bytes", 0, "absolute per-cause drift allowed, in bytes")
		tolPct   = flag.Float64("tolerance-pct", 0, "relative per-cause drift allowed, in percent of the old value")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tuediff [flags] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldDump, err := readDump(flag.Arg(0))
	if err == nil {
		var newDump dump
		newDump, err = readDump(flag.Arg(1))
		if err == nil {
			os.Exit(diff(oldDump, newDump, *tolBytes, *tolPct))
		}
	}
	fmt.Fprintf(os.Stderr, "tuediff: %v\n", err)
	os.Exit(2)
}

// diff prints every divergence and returns the exit status: 0 when the
// dumps agree within tolerance, 1 otherwise.
func diff(oldDump, newDump dump, tolBytes int64, tolPct float64) int {
	keys := map[string]bool{}
	for k := range oldDump.Cells {
		keys[k] = true
	}
	for k := range newDump.Cells {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	drifts := 0
	for _, key := range sorted {
		oldCell, inOld := oldDump.Cells[key]
		newCell, inNew := newDump.Cells[key]
		switch {
		case !inOld:
			fmt.Printf("NEW     %-40s traffic %d\n", key, newCell.Traffic)
			drifts++
			continue
		case !inNew:
			fmt.Printf("MISSING %-40s traffic was %d\n", key, oldCell.Traffic)
			drifts++
			continue
		}
		for _, c := range ledger.Causes() {
			o, n := oldCell.Causes.Get(c), newCell.Causes.Get(c)
			if o == n || withinTolerance(o, n, tolBytes, tolPct) {
				continue
			}
			pct := math.Inf(1)
			if o > 0 {
				pct = float64(n-o) / float64(o) * 100
			}
			fmt.Printf("DRIFT   %-40s %-13s %d -> %d (%+d bytes, %+.1f%%)\n",
				key, c, o, n, n-o, pct)
			drifts++
		}
	}
	if drifts > 0 {
		fmt.Printf("tuediff: %d divergence(s) beyond tolerance (bytes=%d, pct=%g)\n",
			drifts, tolBytes, tolPct)
		return 1
	}
	fmt.Printf("tuediff: %d cells agree within tolerance (bytes=%d, pct=%g)\n",
		len(sorted), tolBytes, tolPct)
	return 0
}
