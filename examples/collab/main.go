// Collaborative editing: a document receives a small append every few
// seconds — the paper's "X KB / X sec" workload (§ 6). Compare how the
// traffic balloons under Google Drive's fixed 4.2 s sync deferment
// once edits arrive slower than the deferment, and how the paper's
// proposed adaptive sync defer (ASD) keeps TUE near 1.
package main

import (
	"fmt"
	"time"

	"cloudsync"
)

// editSession appends `1 KB × X` every X seconds until 512 KB total and
// returns the sync traffic's TUE.
func editSession(sim *cloudsync.Simulation, xSec float64) float64 {
	const total = 512 << 10
	if err := sim.CreateRandomFile("draft.doc", 0); err != nil {
		panic(err)
	}
	sim.Run()
	step := int64(xSec * 1024)
	period := time.Duration(xSec * float64(time.Second))
	m := sim.Measure(func() {
		var scheduled int64
		for i := 1; scheduled < total; i++ {
			n := min(step, total-scheduled)
			scheduled += n
			sim.At(sim.Now()+time.Duration(i)*period, func() {
				if err := sim.Append("draft.doc", n); err != nil {
					panic(err)
				}
			})
		}
	})
	return cloudsync.TUE(m.Traffic(), total)
}

func main() {
	fmt.Println("Collaborative editing under Google Drive's sync deferment (T ≈ 4.2 s)")
	fmt.Println()
	fmt.Printf("%-28s %-14s %-14s\n", "edit cadence", "native defer", "adaptive (ASD)")
	for _, x := range []float64{2, 5, 8, 15} {
		native := editSession(cloudsync.New(cloudsync.GoogleDrive, cloudsync.PC), x)
		asd := editSession(cloudsync.New(cloudsync.GoogleDrive, cloudsync.PC,
			cloudsync.WithAdaptiveSyncDefer(500*time.Millisecond, 45*time.Second)), x)
		fmt.Printf("every %4.0f s                 TUE %-10.1f TUE %-10.1f\n", x, native, asd)
	}
	fmt.Println()
	fmt.Println("Below the deferment (X ≤ 4.2 s) the fixed timer batches everything;")
	fmt.Println("past it, every edit re-uploads the whole growing file. ASD tracks the")
	fmt.Println("observed cadence and keeps batching at any edit rate.")
}
