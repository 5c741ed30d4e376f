package core

import (
	"testing"

	"cloudsync/internal/client"
	"cloudsync/internal/service"
)

// TestCellsCarryTheirCauses: every cell of the simple experiments holds
// the traffic it measured and that traffic's decomposition, which sums
// to it exactly — as Cell documents.
func TestCellsCarryTheirCauses(t *testing.T) {
	sizes := []int64{1 << 10}
	for _, tc := range []struct {
		name  string
		cells []Cell
	}{
		{"Experiment1", Experiment1(sizes)},
		{"Experiment1Batch", Experiment1Batch()},
		{"Experiment2", Experiment2(sizes)},
		{"Experiment3", Experiment3(sizes)},
		{"Experiment6", Experiment6(service.All(), []float64{2, 8})},
	} {
		for _, c := range tc.cells {
			if c.Traffic <= 0 || c.Causes.Total() != c.Traffic {
				t.Errorf("%s %s/%s at %v: causes sum to %d, traffic %d",
					tc.name, c.Service, c.Access, c.Param, c.Causes.Total(), c.Traffic)
			}
		}
	}
}

// TestCellIsTheTableCell: MeasureCell (tuebench -cell) runs the
// experiment's own cell body, so after the same seed draws it returns
// the experiment's cell byte for byte — traffic, every cause and TUE.
func TestCellIsTheTableCell(t *testing.T) {
	defer ResetContentSeeds()
	find := func(cells []Cell, n service.Name) Cell {
		t.Helper()
		for _, c := range cells {
			if c.Service == n && c.Access == client.PC {
				return c
			}
		}
		t.Fatalf("no %s/PC cell", n)
		return Cell{}
	}
	for _, tc := range []struct {
		op    string
		n     service.Name
		param float64
		table func() []Cell
	}{
		{"create", service.Dropbox, 1 << 20, func() []Cell { return Experiment1([]int64{1 << 20}) }},
		{"modify", service.Dropbox, 1 << 20, func() []Cell { return Experiment3([]int64{1 << 20}) }},
		{"delete", service.Dropbox, 1 << 20, func() []Cell { return Experiment2([]int64{1 << 20}) }},
		{"append", service.GoogleDrive, 5, func() []Cell { return Experiment6([]service.Name{service.GoogleDrive}, []float64{5}) }},
		// Google Drive/PC is the batch grid's first cell, so it draws
		// the first 100 seeds.
		{"batch", service.GoogleDrive, 100, Experiment1Batch},
	} {
		ResetContentSeeds()
		want := find(tc.table(), tc.n)
		ResetContentSeeds()
		got, err := MeasureCell(service.NewSetup(tc.n, client.PC, service.Options{}), tc.op, tc.param)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if got != want {
			t.Errorf("%s on %s: -cell measured %+v, the table %+v", tc.op, tc.n, got, want)
		}
	}
}
