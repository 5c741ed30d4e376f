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

// explainQuick renders the explain artifact as tuebench -quick does,
// from a fresh content-seed counter.
func explainQuick() string {
	ResetContentSeeds()
	return RenderExplain(Experiment1(QuickSizes), Experiment3(QuickSizes), FaultSweep(QuickFaultLossProbs))
}

// parseTable splits a rendered metrics.Table (header, rule, rows) into
// one map per row from column header to trimmed cell text. Headers are
// single words and columns are left-aligned under them.
func parseTable(t *testing.T, table string) []map[string]string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "-") {
		t.Fatalf("not a table:\n%s", table)
	}
	names := strings.Fields(lines[0])
	starts := make([]int, len(names))
	pos := 0
	for i, n := range names {
		starts[i] = pos + strings.Index(lines[0][pos:], n)
		pos = starts[i] + len(n)
	}
	var rows []map[string]string
	for _, line := range lines[2:] {
		row := map[string]string{}
		for i, n := range names {
			end := len(line)
			if i+1 < len(names) {
				end = min(starts[i+1], len(line))
			}
			row[n] = strings.TrimSpace(line[min(starts[i], end):end])
		}
		rows = append(rows, row)
	}
	return rows
}

// explainSection returns the table under the explain section titled
// "(<letter>) ...".
func explainSection(t *testing.T, out, letter string) []map[string]string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "\n("+letter+") ")
	if !ok {
		t.Fatalf("no section (%s) in:\n%s", letter, out)
	}
	_, table, _ := strings.Cut(rest, "\n")
	if next := strings.Index(table, "\n("); next >= 0 {
		table = table[:next+1]
	}
	return parseTable(t, table)
}

// TestExplainIsTheMeasuredCell pins that explain decomposes the cells
// the tables measure, not copies of them: run as tuebench runs each
// artifact, section (c) reads the fault sweep's links, loss rates and
// TUEs row for row, and section (a) reads Fig. 3's PC creation cells.
func TestExplainIsTheMeasuredCell(t *testing.T) {
	ResetContentSeeds()
	faults := RenderFaultSweep(FaultSweep(QuickFaultLossProbs))
	ResetContentSeeds()
	creation := Experiment1PC(QuickSizes)
	out := explainQuick()

	_, faultTable, _ := strings.Cut(faults, "\n")
	want := parseTable(t, faultTable)
	got := explainSection(t, out, "c")
	if len(got) != len(want) {
		t.Fatalf("section (c) has %d rows, the fault sweep %d:\n%s\n%s", len(got), len(want), out, faults)
	}
	for i := range want {
		for _, col := range []string{"Link", "Loss", "TUE"} {
			if got[i][col] != want[i][col] {
				t.Errorf("(c) row %d: %s %q, the fault sweep reads %q", i, col, got[i][col], want[i][col])
			}
		}
	}

	rows := explainSection(t, out, "a")
	if len(rows) != len(creation) {
		t.Fatalf("section (a) has %d rows, Experiment1PC %d cells", len(rows), len(creation))
	}
	for i, c := range creation {
		if rows[i]["Service"] != c.Service.String() || rows[i]["TUE"] != fmtTUE(c.TUE) ||
			rows[i]["total"] != strconv.FormatInt(c.Traffic, 10) {
			t.Errorf("(a) row %d = %v, Experiment1PC cell %s %v B: total %d, TUE %s",
				i, rows[i], c.Service, c.Param, c.Traffic, fmtTUE(c.TUE))
		}
	}
}

// TestExplainExactSums re-checks the decomposition contract from the
// outside: every cell explain renders carries causes that sum exactly
// to its traffic. (measure already panics on imbalance; this keeps the
// contract visible even if that panic is ever relaxed.)
func TestExplainExactSums(t *testing.T) {
	ResetContentSeeds()
	faults := FaultSweep(QuickFaultLossProbs)
	cells := map[string][]Cell{
		"creation":     pcCells(Experiment1(QuickSizes)),
		"modification": pcCells(Experiment3(QuickSizes)),
	}
	var retrans int64
	for _, f := range faults {
		cells["faults"] = append(cells["faults"], f.Cell)
		if f.Param > 0 {
			retrans += f.Causes.Get(ledger.Retransmit)
		}
	}
	for name, cs := range cells {
		if len(cs) == 0 {
			t.Errorf("%s: no cells", name)
		}
		for _, c := range cs {
			if vs := invariant.CheckLedger(c.Traffic, c.Causes); len(vs) != 0 {
				t.Errorf("%s %s param=%v: %v", name, c.Service, c.Param, vs)
			}
			if c.Traffic <= 0 {
				t.Errorf("%s %s param=%v: no traffic", name, c.Service, c.Param)
			}
		}
	}
	// The fault section's lossy rows must show what the clean rows
	// cannot: retransmitted bytes.
	if retrans == 0 {
		t.Error("fault section charged no retransmit bytes at any loss rate")
	}
}

// TestExplainDeterministicAcrossWorkers extends the determinism
// contract to the explain artifact: cell decompositions must be
// byte-identical no matter how many workers run the grid.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		parallel.SetWorkers(workers)
		return explainQuick()
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
	cells := []Cell{
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
	size := func(i int) string { return metrics.HumanBytes(int64(cells[i].Param)) }
	out := explainTable(cells, []string{"Size"}, func(i int) []string { return []string{size(i)} })

	rows := parseTable(t, out)
	if len(rows) != len(cells) {
		t.Fatalf("want %d rows, got:\n%s", len(cells), out)
	}
	for i, row := range rows {
		if got, want := row["Size"], size(i); got != want {
			t.Errorf("row %d: Size %q, want %q", i, got, want)
		}
		var sum int64
		for _, c := range ledger.Causes() {
			n, err := strconv.ParseInt(row[c.String()], 10, 64)
			if err != nil {
				t.Errorf("row %d: %s is not a byte count: %v", i, c, err)
				continue
			}
			if n != cells[i].Causes.Get(c) {
				t.Errorf("row %d: %s prints %d, want %d", i, c, n, cells[i].Causes.Get(c))
			}
			sum += n
		}
		total, err := strconv.ParseInt(row["total"], 10, 64)
		if err != nil {
			t.Errorf("row %d: total is not a byte count: %v", i, err)
		}
		if total != cells[i].Traffic || sum != total {
			t.Errorf("row %d: causes sum to %d, total prints %d, traffic %d", i, sum, total, cells[i].Traffic)
		}
	}
}
