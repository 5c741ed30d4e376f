package core

import (
	"strconv"
	"strings"
	"testing"

	"cloudsync/internal/invariant"
	"cloudsync/internal/metrics"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
)

// TestLedgerNeverChangesTables is the accounting analogue of the
// tracing contract: attaching the process-wide attribution ledger must
// leave every experiment table byte-identical. The ledger observes the
// capture; it must not feed back into it.
func TestLedgerNeverChangesTables(t *testing.T) {
	render := func() string {
		creationSeed.Store(10_000)
		return RenderTable6(Experiment1(QuickSizes), QuickSizes)
	}
	SetLedger(nil)
	off := render()

	led := &ledger.Ledger{}
	SetLedger(led)
	defer SetLedger(nil)
	on := render()

	if on != off {
		t.Errorf("Experiment1 table differs with the ledger attached:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
	if led.Total() == 0 {
		t.Error("global ledger attached but charged nothing")
	}
}

// TestExplainExactSums re-checks the decomposition contract from the
// outside: every explain cell's causes sum exactly to its traffic.
// (explainOp already panics on imbalance; this keeps the contract
// visible even if that panic is ever relaxed.)
func TestExplainExactSums(t *testing.T) {
	creationSeed.Store(10_000)
	res := ExplainAll(true)
	for name, cells := range map[string][]ExplainCell{
		"creation": res.Creation, "modification": res.Modification, "faults": res.Faults,
	} {
		if len(cells) == 0 {
			t.Errorf("%s: no cells", name)
		}
		for _, c := range cells {
			if vs := invariant.CheckLedger(c.Traffic, c.Causes); len(vs) != 0 {
				t.Errorf("%s %s param=%v: %v", name, c.Service, c.Param, vs)
			}
			if c.Traffic <= 0 {
				t.Errorf("%s %s param=%v: no traffic", name, c.Service, c.Param)
			}
		}
	}
	// The fault section's lossy rows must show what the clean row
	// cannot: retransmitted bytes.
	var retrans int64
	for _, c := range res.Faults {
		if c.Param > 0 {
			retrans += c.Causes.Get(ledger.Retransmit)
		}
	}
	if retrans == 0 {
		t.Error("fault section charged no retransmit bytes at any loss rate")
	}
}

// TestExplainDeterministicAcrossWorkers extends the determinism
// contract to the explain experiment: cell decompositions must be
// byte-identical no matter how many workers run the grid.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		parallel.SetWorkers(workers)
		creationSeed.Store(10_000)
		return RenderExplain(ExplainAll(true))
	}
	seq := run(1)
	par := run(8)
	parallel.SetWorkers(0)
	if seq != par {
		t.Errorf("explain tables differ between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "delta_literal") {
		t.Errorf("explain render missing cause columns:\n%s", seq)
	}
}

// TestExplainTableIsExact pins the explain tables' promise of exact
// byte counts: at megabyte scale a rounded rendering ("1.14 M") hides a
// drift of kilobytes, so every cause column and the total must print
// as an integer, and each row's causes must add up to its total.
func TestExplainTableIsExact(t *testing.T) {
	cells := []ExplainCell{
		{Service: service.Dropbox, Param: 1 << 20, Causes: ledger.Snapshot{
			ledger.Metadata: 35_041, ledger.Payload: 1_237_913, ledger.DedupProbe: 91, ledger.Framing: 91_444,
		}},
		{Service: service.Box, Param: 4 << 20, Causes: ledger.Snapshot{
			ledger.Metadata: 3 << 20, ledger.DeltaLiteral: 1<<20 + 1, ledger.Retransmit: 5<<20 + 333, ledger.Framing: 1,
		}},
	}
	for i := range cells {
		cells[i].Traffic = cells[i].Causes.Total()
		cells[i].TUE = float64(cells[i].Traffic) / cells[i].Param
	}
	size := func(c ExplainCell) string { return metrics.HumanBytes(int64(c.Param)) }
	out := explainTable(cells, size, "Size")

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2+len(cells) {
		t.Fatalf("want header, rule and %d rows, got:\n%s", len(cells), out)
	}
	// Columns are left-aligned under their one-word headers, so a
	// column runs from its header's offset to the next header's.
	header := lines[0]
	cell := func(row, name string) string {
		start := strings.Index(header, name)
		end := len(row)
		if rest := strings.TrimLeft(header[start+len(name):], " "); rest != "" {
			end = len(header) - len(rest)
		}
		return strings.TrimSpace(row[start:min(end, len(row))])
	}
	for i, row := range lines[2:] {
		if got, want := cell(row, "Size"), size(cells[i]); got != want {
			t.Errorf("row %d: Size %q, want %q", i, got, want)
		}
		var sum int64
		for _, c := range ledger.Causes() {
			n, err := strconv.ParseInt(cell(row, c.String()), 10, 64)
			if err != nil {
				t.Errorf("row %d: %s is not a byte count: %v", i, c, err)
				continue
			}
			if n != cells[i].Causes.Get(c) {
				t.Errorf("row %d: %s prints %d, want %d", i, c, n, cells[i].Causes.Get(c))
			}
			sum += n
		}
		total, err := strconv.ParseInt(cell(row, "total"), 10, 64)
		if err != nil {
			t.Errorf("row %d: total is not a byte count: %v", i, err)
		}
		if total != cells[i].Traffic || sum != total {
			t.Errorf("row %d: causes sum to %d, total prints %d, traffic %d", i, sum, total, cells[i].Traffic)
		}
	}
}
