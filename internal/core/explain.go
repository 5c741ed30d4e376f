package core

import (
	"fmt"
	"strconv"

	"cloudsync/internal/metrics"
	"cloudsync/internal/obs/ledger"
)

// This file is the "explainable TUE" artifact: instead of reporting a
// cell's sync traffic as one opaque number, it prints every wire byte
// of the cells Table 6, Fig. 4 and the fault sweep measure split into
// the attribution ledger's cause taxonomy (metadata, payload, dedup
// probes, delta literals/copy references, resume, retransmit, framing)
// — the paper-style answer to *why* a cell's TUE is what it is. The
// decomposition is the measured cell's own: Measure checks, as it
// measures, that the causes sum to the cell's wire traffic exactly.

// explainTable renders cells: one row per cell, the leading columns
// head names (filled by lead), one column per cause, plus the total
// and the TUE. Every byte column is an exact count, so a golden of this
// table pins each cause to the byte.
func explainTable(cells []Cell, head []string, lead func(i int) []string) string {
	header := append([]string{"Service"}, head...)
	for _, c := range ledger.Causes() {
		header = append(header, c.String())
	}
	header = append(header, "total", "TUE")
	tb := metrics.Table{Header: header}
	for i, cell := range cells {
		row := append([]string{cell.Service.String()}, lead(i)...)
		for _, c := range ledger.Causes() {
			row = append(row, strconv.FormatInt(cell.Causes.Get(c), 10))
		}
		row = append(row, strconv.FormatInt(cell.Traffic, 10), fmtTUE(cell.TUE))
		tb.AddRow(row...)
	}
	return tb.String()
}

// RenderExplain decomposes the PC cells of Experiment 1 (creation) and
// Experiment 3 (one-byte modification) and the cells of the fault
// sweep, as tables in the style of the paper's Table 6/Fig. 4 with
// causes as columns. Every row's causes sum exactly to its total
// column.
func RenderExplain(creation, modification []Cell, faults []FaultCell) string {
	size := func(cells []Cell) func(int) []string {
		return func(i int) []string { return []string{metrics.HumanBytes(int64(cells[i].Param))} }
	}
	creation, modification = pcCells(creation), pcCells(modification)
	faultCells := make([]Cell, len(faults))
	for i, f := range faults {
		faultCells[i] = f.Cell
	}
	link := func(i int) []string { return []string{faults[i].Location, lossPercent(faults[i].Param)} }
	return "Explainable TUE: per-cause decomposition of sync traffic (PC clients)\n" +
		"(a) compressed file creation\n" + explainTable(creation, []string{"Size"}, size(creation)) +
		"(b) one-byte modification of a synced file\n" + explainTable(modification, []string{"Size"}, size(modification)) +
		fmt.Sprintf("(c) the fault sweep: %d x %d KB file creations, by link and exchange loss\n",
			faultFiles, faultFileSize>>10) +
		explainTable(faultCells, []string{"Link", "Loss"}, link)
}

// RenderCell renders one MeasureCell result as an explain row: the
// cell's exact bytes per cause, their total and the TUE.
func RenderCell(op string, c Cell) string {
	return explainTable([]Cell{c}, []string{"Access", "Op", "Param"}, func(int) []string {
		return []string{c.Access.String(), op, strconv.FormatFloat(c.Param, 'f', -1, 64)}
	})
}
