package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cloudsync/internal/client"
	"cloudsync/internal/metrics"
	"cloudsync/internal/service"
	"cloudsync/internal/trace"
)

func fmtTUE(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// cellLookup indexes experiment cells by (service, access, param).
func cellLookup(cells []Cell) map[service.Name]map[client.AccessMethod]map[float64]Cell {
	idx := make(map[service.Name]map[client.AccessMethod]map[float64]Cell)
	for _, c := range cells {
		if idx[c.Service] == nil {
			idx[c.Service] = make(map[client.AccessMethod]map[float64]Cell)
		}
		if idx[c.Service][c.Access] == nil {
			idx[c.Service][c.Access] = make(map[float64]Cell)
		}
		idx[c.Service][c.Access][c.Param] = c
	}
	return idx
}

// RenderTable6 formats Experiment 1 results the way Table 6 does:
// sync traffic of a compressed file creation per service, access
// method, and size.
func RenderTable6(cells []Cell, sizes []int64) string {
	idx := cellLookup(cells)
	tb := metrics.Table{Header: []string{"Service"}}
	for _, a := range service.AccessMethods() {
		for _, size := range sizes {
			tb.Header = append(tb.Header, fmt.Sprintf("%s %s", shortAccess(a), metrics.HumanBytes(size)))
		}
	}
	for _, n := range service.All() {
		row := []string{n.String()}
		for _, a := range service.AccessMethods() {
			for _, size := range sizes {
				c, ok := idx[n][a][float64(size)]
				if !ok {
					row = append(row, "-")
					continue
				}
				row = append(row, metrics.HumanBytes(c.Traffic))
			}
		}
		tb.AddRow(row...)
	}
	return "Table 6: Sync traffic of a (compressed) file creation\n" + tb.String()
}

func shortAccess(a client.AccessMethod) string {
	switch a {
	case client.PC:
		return "PC"
	case client.Web:
		return "Web"
	case client.Mobile:
		return "Mob"
	default:
		return a.String()
	}
}

// RenderFig3 formats the TUE-vs-size curve for PC clients.
func RenderFig3(cells []Cell) string {
	idx := cellLookup(cells)
	var sizes []float64
	seen := map[float64]bool{}
	for _, c := range cells {
		if c.Access == client.PC && !seen[c.Param] {
			seen[c.Param] = true
			sizes = append(sizes, c.Param)
		}
	}
	sort.Float64s(sizes)
	tb := metrics.Table{Header: []string{"File size"}}
	for _, n := range service.All() {
		tb.Header = append(tb.Header, n.String())
	}
	for _, size := range sizes {
		row := []string{metrics.HumanBytes(int64(size))}
		for _, n := range service.All() {
			if c, ok := idx[n][client.PC][size]; ok {
				row = append(row, fmtTUE(c.TUE))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	var series []metrics.Series
	for _, n := range service.All() {
		ser := metrics.Series{Name: n.String()}
		for _, size := range sizes {
			if c, ok := idx[n][client.PC][size]; ok {
				ser.X = append(ser.X, math.Log10(size))
				ser.Y = append(ser.Y, c.TUE)
			}
		}
		series = append(series, ser)
	}
	chart := metrics.Chart("", series, metrics.ChartOptions{
		LogY: true, XLabel: "log10(file size in bytes)", YLabel: "TUE"})
	return "Figure 3: TUE vs. size of the created file (PC clients)\n" + tb.String() + chart
}

// RenderTable7 formats Experiment 1′ results as Table 7 does.
func RenderTable7(cells []Cell) string {
	idx := cellLookup(cells)
	tb := metrics.Table{Header: []string{"Service",
		"PC traffic", "(TUE)", "Web traffic", "(TUE)", "Mobile traffic", "(TUE)"}}
	for _, n := range service.All() {
		row := []string{n.String()}
		for _, a := range service.AccessMethods() {
			r := idx[n][a][batchFiles]
			row = append(row, metrics.HumanBytes(r.Traffic), "("+fmtTUE(r.TUE)+")")
		}
		tb.AddRow(row...)
	}
	return "Table 7: Total traffic for synchronizing 100 compressed 1 KB file creations\n" + tb.String()
}

// RenderExp2 summarizes deletion traffic.
func RenderExp2(cells []Cell) string {
	tb := metrics.Table{Header: []string{"Service", "Access", "File size", "Deletion traffic"}}
	for _, c := range cells {
		tb.AddRow(c.Service.String(), c.Access.String(),
			metrics.HumanBytes(int64(c.Param)), metrics.HumanBytes(c.Traffic))
	}
	return "Experiment 2: Sync traffic of a file deletion (expected negligible)\n" + tb.String()
}

// RenderFig4 formats Experiment 3 (one-byte modification traffic) as
// the three panels of Fig. 4.
func RenderFig4(cells []Cell) string {
	idx := cellLookup(cells)
	var sizes []float64
	seen := map[float64]bool{}
	for _, c := range cells {
		if !seen[c.Param] {
			seen[c.Param] = true
			sizes = append(sizes, c.Param)
		}
	}
	sort.Float64s(sizes)
	out := "Figure 4: Sync traffic of a random one-byte modification\n"
	for _, a := range service.AccessMethods() {
		tb := metrics.Table{Header: []string{"Service"}}
		for _, size := range sizes {
			tb.Header = append(tb.Header, metrics.HumanBytes(int64(size)))
		}
		for _, n := range service.All() {
			row := []string{n.String()}
			for _, size := range sizes {
				if c, ok := idx[n][a][size]; ok {
					row = append(row, metrics.HumanBytes(c.Traffic))
				} else {
					row = append(row, "-")
				}
			}
			tb.AddRow(row...)
		}
		out += fmt.Sprintf("(%s)\n%s", a, tb.String())
	}
	return out
}

// RenderTable8 formats Experiment 4 as Table 8 does.
func RenderTable8(cells []CompressionCell) string {
	idx := map[service.Name]map[client.AccessMethod]CompressionCell{}
	for _, c := range cells {
		if idx[c.Service] == nil {
			idx[c.Service] = map[client.AccessMethod]CompressionCell{}
		}
		idx[c.Service][c.Access] = c
	}
	tb := metrics.Table{Header: []string{"Service",
		"PC UP", "PC DN", "Web UP", "Web DN", "Mob UP", "Mob DN"}}
	for _, n := range service.All() {
		row := []string{n.String()}
		for _, a := range service.AccessMethods() {
			c := idx[n][a]
			row = append(row, metrics.HumanBytes(c.UpBytes), metrics.HumanBytes(c.DnBytes))
		}
		tb.AddRow(row...)
	}
	return "Table 8: Sync traffic of a 10 MB text file creation (UP) and download (DN)\n" + tb.String()
}

// RenderTable9 formats Experiment 5 as Table 9 does.
func RenderTable9(rows []DedupInference) string {
	tb := metrics.Table{Header: []string{"Service", "Same user", "Cross users"}}
	for _, r := range rows {
		tb.AddRow(r.Service.String(), r.SameUser, r.CrossUser)
	}
	return "Table 9: Data deduplication granularity (PC client & mobile app)\n" + tb.String()
}

// RenderFig5 formats the dedup-ratio-vs-block-size series.
func RenderFig5(points []DedupRatioPoint) string {
	tb := metrics.Table{Header: []string{"Granularity", "Dedup ratio"}}
	for _, p := range points {
		label := "full file"
		if p.BlockSize > 0 {
			label = metrics.HumanBytes(int64(p.BlockSize)) + " blocks"
		}
		tb.AddRow(label, fmt.Sprintf("%.3f", p.Ratio))
	}
	return "Figure 5: Deduplication ratio (cross-user) vs. block size\n" + tb.String()
}

// RenderFig6 formats the Experiment 6 TUE series.
func RenderFig6(cells []Cell, services []service.Name) string {
	idx := cellLookup(cells)
	var xs []float64
	seen := map[float64]bool{}
	for _, c := range cells {
		if !seen[c.Param] {
			seen[c.Param] = true
			xs = append(xs, c.Param)
		}
	}
	sort.Float64s(xs)
	tb := metrics.Table{Header: []string{"X (s)"}}
	for _, n := range services {
		tb.Header = append(tb.Header, n.String())
	}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, n := range services {
			if c, ok := idx[n][client.PC][x]; ok {
				row = append(row, fmtTUE(c.TUE))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	var series []metrics.Series
	for _, n := range services {
		ser := metrics.Series{Name: n.String()}
		for _, x := range xs {
			if c, ok := idx[n][client.PC][x]; ok {
				ser.X = append(ser.X, x)
				ser.Y = append(ser.Y, c.TUE)
			}
		}
		series = append(series, ser)
	}
	chart := metrics.Chart("", series, metrics.ChartOptions{
		LogY: true, XLabel: "X (seconds)", YLabel: "TUE"})
	return "Figure 6: TUE under \"X KB / X sec\" appends (PC clients, MN, M1)\n" + tb.String() + chart
}

// RenderPolicies formats the ASD evaluation.
func RenderPolicies(cells []PolicyCell) string {
	byPolicy := map[string]map[float64]float64{}
	var xs []float64
	seenX := map[float64]bool{}
	var policies []string
	seenP := map[string]bool{}
	var svc service.Name
	for _, c := range cells {
		svc = c.Service
		if byPolicy[c.Policy] == nil {
			byPolicy[c.Policy] = map[float64]float64{}
		}
		byPolicy[c.Policy][c.X] = c.TUE
		if !seenX[c.X] {
			seenX[c.X] = true
			xs = append(xs, c.X)
		}
		if !seenP[c.Policy] {
			seenP[c.Policy] = true
			policies = append(policies, c.Policy)
		}
	}
	sort.Float64s(xs)
	tb := metrics.Table{Header: append([]string{"X (s)"}, policies...)}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, p := range policies {
			row = append(row, fmtTUE(byPolicy[p][x]))
		}
		tb.AddRow(row...)
	}
	return fmt.Sprintf("ASD evaluation (%s, appending workload): TUE by defer policy\n%s",
		svc, tb.String())
}

// RenderFig7 formats the location comparison.
func RenderFig7(cells []LocationCell) string {
	type key struct {
		svc service.Name
		loc string
	}
	series := map[key]map[float64]float64{}
	var xs []float64
	seenX := map[float64]bool{}
	var keys []key
	seenK := map[key]bool{}
	for _, c := range cells {
		k := key{c.Service, c.Location}
		if series[k] == nil {
			series[k] = map[float64]float64{}
		}
		series[k][c.X] = c.TUE
		if !seenX[c.X] {
			seenX[c.X] = true
			xs = append(xs, c.X)
		}
		if !seenK[k] {
			seenK[k] = true
			keys = append(keys, k)
		}
	}
	sort.Float64s(xs)
	tb := metrics.Table{Header: []string{"X (s)"}}
	for _, k := range keys {
		tb.Header = append(tb.Header, fmt.Sprintf("%s @%s", k.svc, k.loc))
	}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, k := range keys {
			row = append(row, fmtTUE(series[k][x]))
		}
		tb.AddRow(row...)
	}
	var chartSeries []metrics.Series
	for _, k := range keys {
		ser := metrics.Series{Name: fmt.Sprintf("%s @%s", k.svc, k.loc)}
		for _, x := range xs {
			ser.X = append(ser.X, x)
			ser.Y = append(ser.Y, series[k][x])
		}
		chartSeries = append(chartSeries, ser)
	}
	chart := metrics.Chart("", chartSeries, metrics.ChartOptions{
		LogY: true, XLabel: "X (seconds)", YLabel: "TUE"})
	return "Figure 7: TUE of the appending workload in Minnesota vs. Beijing\n" + tb.String() + chart
}

// RenderFig8ab formats a bandwidth or latency sweep.
func RenderFig8ab(cells []NetCell, sweep string) string {
	tb := metrics.Table{Header: []string{"Bandwidth", "RTT", "TUE"}}
	for _, c := range cells {
		tb.AddRow(fmt.Sprintf("%.1f Mbps", float64(c.Bps)/1e6), c.RTT.String(), fmtTUE(c.TUE))
	}
	return fmt.Sprintf("Figure 8(%s): Dropbox \"1 KB/sec\" appends, %s sweep\n%s",
		map[string]string{"bandwidth": "a", "latency": "b"}[sweep], sweep, tb.String())
}

// RenderFig8c formats the hardware comparison.
func RenderFig8c(cells []HWCell) string {
	byMachine := map[string]map[float64]float64{}
	var machines []string
	seenM := map[string]bool{}
	var xs []float64
	seenX := map[float64]bool{}
	for _, c := range cells {
		if byMachine[c.Machine] == nil {
			byMachine[c.Machine] = map[float64]float64{}
		}
		byMachine[c.Machine][c.X] = c.TUE
		if !seenM[c.Machine] {
			seenM[c.Machine] = true
			machines = append(machines, c.Machine)
		}
		if !seenX[c.X] {
			seenX[c.X] = true
			xs = append(xs, c.X)
		}
	}
	sort.Float64s(xs)
	tb := metrics.Table{Header: append([]string{"X (s)"}, machines...)}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, m := range machines {
			row = append(row, fmtTUE(byMachine[m][x]))
		}
		tb.AddRow(row...)
	}
	return "Figure 8(c): Dropbox appending workload by client hardware\n" + tb.String()
}

// RenderFig2 formats the trace size CDFs.
func RenderFig2(points, orig, comp []float64) string {
	tb := metrics.Table{Header: []string{"Size", "CDF (original)", "CDF (compressed)"}}
	for i := range points {
		tb.AddRow(metrics.HumanBytes(int64(points[i])),
			fmt.Sprintf("%.3f", orig[i]), fmt.Sprintf("%.3f", comp[i]))
	}
	return "Figure 2: CDF of original and compressed file sizes\n" + tb.String()
}

// RenderFindings formats the headline trace statistics against the
// paper's values.
func RenderFindings(s trace.Stats) string {
	tb := metrics.Table{Header: []string{"Statistic", "Measured", "Paper"}}
	tb.AddRow("files", fmt.Sprintf("%d", s.Files), "222632")
	tb.AddRow("users", fmt.Sprintf("%d", s.Users), "153")
	tb.AddRow("median file size", metrics.HumanBytes(int64(s.MedianSize)), "7.5 K")
	tb.AddRow("mean file size", metrics.HumanBytes(int64(s.MeanSize)), "962 K")
	tb.AddRow("small files (<100 KB)", fmt.Sprintf("%.1f%%", 100*s.SmallFraction), "77%")
	tb.AddRow("batchable small files", fmt.Sprintf("%.1f%%", 100*s.BatchableSmallFraction), "66%")
	tb.AddRow("modified at least once", fmt.Sprintf("%.1f%%", 100*s.ModifiedFraction), "84%")
	tb.AddRow("effectively compressible", fmt.Sprintf("%.1f%%", 100*s.CompressibleFraction), "52%")
	tb.AddRow("compression ratio", fmt.Sprintf("%.2f", s.CompressionRatio), "1.31")
	tb.AddRow("duplicate volume", fmt.Sprintf("%.1f%%", 100*s.DuplicateVolumeFraction), "18.8%")
	return "Trace findings vs. the paper's statistics\n" + tb.String()
}

// RenderTable2 formats the trace's users and files per service, as
// reported by trace.PerServiceCounts.
func RenderTable2(counts map[string][2]int) string {
	services := make([]string, 0, len(counts))
	for svc := range counts {
		services = append(services, svc)
	}
	sort.Strings(services)
	tb := metrics.Table{Header: []string{"Service", "Users", "Files"}}
	for _, svc := range services {
		c := counts[svc]
		tb.AddRow(svc, fmt.Sprintf("%d", c[0]), fmt.Sprintf("%d", c[1]))
	}
	return "Table 2: users and files per service in the trace\n" + tb.String()
}

// RenderMidLayer formats the mid-layer ablation.
func RenderMidLayer(rows []MidLayerResult) string {
	tb := metrics.Table{Header: []string{"Mid-layer", "PUTs", "GETs", "DELETEs", "Internal bytes"}}
	for _, r := range rows {
		tb.AddRow(r.Layer, fmt.Sprintf("%d", r.Puts), fmt.Sprintf("%d", r.Gets),
			fmt.Sprintf("%d", r.Deletes), metrics.HumanBytes(r.InternalBytes()))
	}
	return "Mid-layer ablation (§ 4.3): provider-internal cost of IDS on a REST store\n" + tb.String()
}

// RenderCompressDedup formats the compression × dedup ablation.
func RenderCompressDedup(rows []AblationCell) string {
	tb := metrics.Table{Header: []string{"Compression", "Dedup", "Upload traffic", "Server decompression"}}
	for _, r := range rows {
		compression := "off"
		if r.Compression {
			compression = "on"
		}
		tb.AddRow(compression, r.Dedup.String(),
			metrics.HumanBytes(r.Traffic), metrics.HumanBytes(r.DecompressBytes))
	}
	return "Compression × deduplication ablation (§ 5.2)\n" + tb.String()
}

// RenderDeferments formats inferred deferments against § 6.1.
func RenderDeferments(measured map[service.Name]time.Duration) string {
	paper := map[service.Name]string{
		service.GoogleDrive: "4.2 s",
		service.OneDrive:    "10.5 s",
		service.SugarSync:   "6 s",
		service.Dropbox:     "none",
		service.Box:         "none",
		service.UbuntuOne:   "none",
	}
	tb := metrics.Table{Header: []string{"Service", "Measured deferment", "Paper"}}
	for _, n := range service.All() {
		got := "none"
		if t, ok := measured[n]; ok && t > 0 {
			got = fmt.Sprintf("%.1f s", t.Seconds())
		}
		tb.AddRow(n.String(), got, paper[n])
	}
	return "Sync deferment inference (§ 6.1)\n" + tb.String()
}
