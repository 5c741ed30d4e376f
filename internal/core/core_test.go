package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cloudsync/internal/client"
	"cloudsync/internal/obs"
	"cloudsync/internal/service"
)

func TestTUE(t *testing.T) {
	if got := TUE(150, 100); got != 1.5 {
		t.Fatalf("TUE = %v", got)
	}
	for _, c := range []struct{ tr, sz int64 }{{-1, 10}, {10, 0}, {10, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TUE(%d, %d) did not panic", c.tr, c.sz)
				}
			}()
			TUE(c.tr, c.sz)
		}()
	}
}

func pcBySize(cells []Cell) map[service.Name]map[float64]Cell {
	out := map[service.Name]map[float64]Cell{}
	for _, c := range cells {
		if c.Access != client.PC {
			continue
		}
		if out[c.Service] == nil {
			out[c.Service] = map[float64]Cell{}
		}
		out[c.Service][c.Param] = c
	}
	return out
}

func TestExperiment1Shapes(t *testing.T) {
	cells := Experiment1(QuickSizes)
	if len(cells) != 6*3*len(QuickSizes) {
		t.Fatalf("cells = %d", len(cells))
	}
	pc := pcBySize(cells)
	for _, n := range service.All() {
		oneB := pc[n][1].TUE
		oneMB := pc[n][1<<20].TUE
		// A 1-byte file costs kilobytes (TUE in the thousands); a 1 MB
		// file approaches TUE 1 — the core Fig. 3 shape.
		if oneB < 1000 {
			t.Errorf("%v: TUE(1B) = %.0f, want ≫ 1000", n, oneB)
		}
		if oneMB > 1.6 {
			t.Errorf("%v: TUE(1MB) = %.2f, want ≤ 1.6", n, oneMB)
		}
		if oneB <= oneMB {
			t.Errorf("%v: TUE not decreasing with size", n)
		}
	}
}

func TestExperiment1BatchMatchesTable7(t *testing.T) {
	byKey := cellLookup(Experiment1Batch())
	// Table 7's finding: Dropbox and Ubuntu One PC clients batch; the
	// other four do not. The paper detects BDS where the total traffic
	// stays within an order of magnitude of the 100 KB update size.
	for _, n := range service.All() {
		r := byKey[n][client.PC][batchFiles]
		wantBDS := n == service.Dropbox || n == service.UbuntuOne
		if bds := r.TUE <= 10; bds != wantBDS {
			t.Errorf("%v PC: BDS detected = %v (TUE %.1f), want %v", n, bds, r.TUE, wantBDS)
		}
	}
	// Magnitudes: Dropbox PC ≈ 120 KB; Google Drive PC ≈ 1.1 MB.
	if r := byKey[service.Dropbox][client.PC][batchFiles]; r.Traffic > 400<<10 {
		t.Errorf("Dropbox PC batch traffic = %d, want ≈ 120–300 KB", r.Traffic)
	}
	if r := byKey[service.GoogleDrive][client.PC][batchFiles]; r.Traffic < 500<<10 {
		t.Errorf("Google Drive PC batch traffic = %d, want ≈ 1 MB", r.Traffic)
	}
}

func TestExperiment2DeletionNegligible(t *testing.T) {
	for _, c := range Experiment2([]int64{1 << 10, 10 << 20}) {
		if c.Traffic > 100<<10 {
			t.Errorf("%v/%v size %v: deletion traffic %d ≥ 100 KB",
				c.Service, c.Access, c.Param, c.Traffic)
		}
	}
}

func TestExperiment3SyncGranularity(t *testing.T) {
	sizes := []int64{10 << 10, 1 << 20}
	cells := Experiment3(sizes)
	idx := map[service.Name]map[client.AccessMethod]map[float64]Cell{}
	for _, c := range cells {
		if idx[c.Service] == nil {
			idx[c.Service] = map[client.AccessMethod]map[float64]Cell{}
		}
		if idx[c.Service][c.Access] == nil {
			idx[c.Service][c.Access] = map[float64]Cell{}
		}
		idx[c.Service][c.Access][c.Param] = c
	}
	// Fig. 4(a): Dropbox PC traffic stays flat as the file grows (its
	// ≈10 KB chunks dwarf neither overhead nor payload); SugarSync's
	// coarser chunks grow to one chunk and then plateau. Both stay far
	// below the full file.
	{
		small := idx[service.Dropbox][client.PC][float64(10<<10)].Traffic
		big := idx[service.Dropbox][client.PC][float64(1<<20)].Traffic
		if big > 3*small {
			t.Errorf("Dropbox PC: IDS traffic grew %d → %d with file size", small, big)
		}
	}
	if got := idx[service.SugarSync][client.PC][float64(1<<20)].Traffic; got > 1<<19 {
		t.Errorf("SugarSync PC: modify traffic %d should stay below half the file (IDS)", got)
	}
	for _, n := range []service.Name{service.GoogleDrive, service.OneDrive, service.Box, service.UbuntuOne} {
		small := idx[n][client.PC][float64(10<<10)].Traffic
		big := idx[n][client.PC][float64(1<<20)].Traffic
		if big < 10*small {
			t.Errorf("%v PC: full-file traffic should scale with size (%d → %d)", n, small, big)
		}
	}
	// Fig. 4(b,c): every web and mobile client is full-file.
	for _, n := range service.All() {
		for _, a := range []client.AccessMethod{client.Web, client.Mobile} {
			big := idx[n][a][float64(1<<20)].Traffic
			if big < 1<<20 {
				t.Errorf("%v/%v: modify traffic %d < file size; web/mobile must be full-file", n, a, big)
			}
		}
	}
	// Dropbox PC's absolute magnitude: ≈ 50 KB regardless of size.
	if got := idx[service.Dropbox][client.PC][float64(1<<20)].Traffic; got < 20<<10 || got > 120<<10 {
		t.Errorf("Dropbox PC modify traffic = %d, want ≈ 50 KB", got)
	}
}

func TestExperiment4MatchesTable8(t *testing.T) {
	const size = 10 << 20
	cells := Experiment4(size)
	idx := map[service.Name]map[client.AccessMethod]CompressionCell{}
	for _, c := range cells {
		if idx[c.Service] == nil {
			idx[c.Service] = map[client.AccessMethod]CompressionCell{}
		}
		idx[c.Service][c.Access] = c
	}
	// Upload compression: only Dropbox and Ubuntu One, only PC and
	// mobile.
	for _, n := range service.All() {
		for _, a := range service.AccessMethods() {
			c := idx[n][a]
			want := (n == service.Dropbox || n == service.UbuntuOne) && a != client.Web
			if c.Detected != want {
				t.Errorf("%v/%v: compression detected = %v (UP %d), want %v",
					n, a, c.Detected, c.UpBytes, want)
			}
		}
	}
	// Magnitude check against Table 8 (PC column): Dropbox ≈ 6.1 MB up,
	// 5.5 MB down; Google Drive ≈ 11.3 MB up.
	mb := func(v int64) float64 { return float64(v) / (1 << 20) }
	if up := mb(idx[service.Dropbox][client.PC].UpBytes); up < 5.0 || up > 7.5 {
		t.Errorf("Dropbox PC UP = %.1f MB, want ≈ 6.1", up)
	}
	if dn := mb(idx[service.Dropbox][client.PC].DnBytes); dn < 4.5 || dn > 7.0 {
		t.Errorf("Dropbox PC DN = %.1f MB, want ≈ 5.5", dn)
	}
	if up := mb(idx[service.GoogleDrive][client.PC].UpBytes); up < 10.0 || up > 12.5 {
		t.Errorf("Google Drive PC UP = %.1f MB, want ≈ 11.3", up)
	}
	// Mobile compression is weaker than PC (Dropbox: 8.1 vs 6.1).
	if pc, mob := idx[service.Dropbox][client.PC].UpBytes, idx[service.Dropbox][client.Mobile].UpBytes; mob <= pc {
		t.Errorf("Dropbox mobile UP (%d) should exceed PC UP (%d)", mob, pc)
	}
	// Ubuntu One mobile downloads are uncompressed (10.6 MB).
	if dn := mb(idx[service.UbuntuOne][client.Mobile].DnBytes); dn < 9.5 {
		t.Errorf("Ubuntu One mobile DN = %.1f MB, want ≈ raw size", dn)
	}
}

func TestTextIdealRatio(t *testing.T) {
	// The paper's WinZip reference: 10 MB of text → ≈ 4.5 MB.
	if r := TextIdealRatio(4 << 20); r < 0.35 || r > 0.65 {
		t.Fatalf("ideal text ratio = %.3f, want ≈ 0.45–0.55", r)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	cells := Experiment1([]int64{1, 1 << 20})
	for name, s := range map[string]string{
		"table6": RenderTable6(cells, []int64{1, 1 << 20}),
		"fig3":   RenderFig3(cells),
	} {
		if !strings.Contains(s, "Dropbox") || !strings.Contains(s, "Ubuntu One") {
			t.Errorf("%s rendering incomplete:\n%s", name, s)
		}
		if len(strings.Split(s, "\n")) < 5 {
			t.Errorf("%s rendering too short:\n%s", name, s)
		}
	}
}

// TestOneSpanPerMeasuredCell: with a tracer installed, every simulated
// measurement is one core.cell span carrying its cell's service, access
// and traffic — for cells measured on a setup of their own (Fig. 4,
// Experiment 2, the fault sweep) as for those runOp builds (Table 6).
func TestOneSpanPerMeasuredCell(t *testing.T) {
	tr := obs.NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	for _, exp := range []struct {
		name string
		run  func() []Cell
	}{
		{"fig4", func() []Cell { return Experiment3([]int64{10 << 10}) }},
		{"exp2", func() []Cell { return Experiment2([]int64{1 << 10}) }},
		{"faults", func() []Cell {
			var cells []Cell
			for _, c := range FaultSweep(QuickFaultLossProbs) {
				cells = append(cells, c.Cell)
			}
			return cells
		}},
		{"table6", func() []Cell { return Experiment1([]int64{1 << 10}) }},
	} {
		before := len(tr.Spans())
		var want, got []string
		for _, c := range exp.run() {
			want = append(want, fmt.Sprint([]obs.Attr{
				obs.String("service", c.Service.String()), obs.String("access", c.Access.String()),
				obs.Int("traffic", c.Traffic)}))
		}
		for _, sp := range tr.Spans()[before:] {
			if sp.Name != "core.cell" || !sp.Ended {
				t.Fatalf("%s: span %q (ended %v), want ended core.cell spans only", exp.name, sp.Name, sp.Ended)
			}
			got = append(got, fmt.Sprint(sp.Attrs))
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d cells, %d core.cell spans; their service, access and traffic differ", exp.name, len(want), len(got))
		}
	}
}
