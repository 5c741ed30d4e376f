// Service comparison: run one realistic mixed workload — documents,
// photos, edits, a duplicate, a deletion — against all six services and
// both vantage points, and rank them by traffic efficiency. This is
// the "help users pick appropriate services" use the paper closes on.
package main

import (
	"fmt"
	"sort"

	"cloudsync"
)

// workload applies a realistic session and returns the data update
// size.
func workload(sim *cloudsync.Simulation) (updateSize int64) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// A 2 MB compressible report, edited twice.
	must(sim.CreateTextFile("report.docx", 2<<20))
	sim.Run()
	must(sim.ModifyByte("report.docx", 1<<20))
	sim.Run()
	must(sim.ModifyByte("report.docx", 100))
	sim.Run()
	// A 5 MB photo (incompressible).
	must(sim.CreateRandomFile("IMG_001.jpg", 5<<20))
	sim.Run()
	// The same photo copied into another folder (dedup opportunity).
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	must(sim.CreateFileFromBytes("backup/copy1.bin", data))
	sim.Run()
	must(sim.CreateFileFromBytes("backup/copy2.bin", append([]byte(nil), data...)))
	sim.Run()
	// Twenty small notes in a burst.
	for i := 0; i < 20; i++ {
		must(sim.CreateTextFile(fmt.Sprintf("notes/n%02d.md", i), 2<<10))
	}
	sim.Run()
	// Clean up a scratch file.
	must(sim.CreateRandomFile("scratch.tmp", 1<<20))
	sim.Run()
	must(sim.Delete("scratch.tmp"))
	sim.Run()

	return int64(2<<20) + 2 + 5<<20 + 2<<20 + 20*2<<10 + 1<<20
}

func main() {
	type row struct {
		name string
		tue  float64
		mb   float64
	}
	for _, loc := range []struct {
		label string
		opts  []cloudsync.Option
	}{
		{"Minnesota (close to the cloud)", nil},
		{"Beijing (remote)", []cloudsync.Option{cloudsync.FromBeijing()}},
	} {
		var rows []row
		for _, svc := range cloudsync.Services() {
			sim := cloudsync.New(svc, cloudsync.PC, loc.opts...)
			var update int64
			traffic := sim.Measure(func() { update = workload(sim) }).Traffic()
			rows = append(rows, row{svc.String(), cloudsync.TUE(traffic, update),
				float64(traffic) / (1 << 20)})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].tue < rows[j].tue })
		fmt.Printf("Mixed workload from %s\n", loc.label)
		fmt.Printf("  %-14s %10s %8s\n", "service", "traffic", "TUE")
		for i, r := range rows {
			fmt.Printf("  %-14s %8.2f MB %8.2f", r.name, r.mb, r.tue)
			if i == 0 {
				fmt.Print("   ← most traffic-efficient")
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
