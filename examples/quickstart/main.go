// Quickstart: simulate a Dropbox PC client, sync a few files, and
// inspect the traffic and TUE of each operation.
package main

import (
	"fmt"

	"cloudsync"
)

func mustNoErr(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	sim := cloudsync.New(cloudsync.Dropbox, cloudsync.PC)
	measure := func(op func() error) cloudsync.Measurement {
		return sim.Measure(func() { mustNoErr(op()) })
	}

	// 1. Create a 1 MB photo (incompressible content).
	m := measure(func() error { return sim.CreateRandomFile("photos/beach.jpg", 1<<20) })
	fmt.Printf("create 1MB photo: traffic %8d B  TUE %5.2f\n",
		m.Traffic(), cloudsync.TUE(m.Traffic(), 1<<20))

	// 2. Modify one byte in the middle — incremental sync moves a
	// single chunk, not the file.
	m = measure(func() error { return sim.ModifyByte("photos/beach.jpg", 512<<10) })
	fmt.Printf("modify 1 byte:    traffic %8d B  TUE %5.0f (vs %d for full-file sync)\n",
		m.Traffic(), cloudsync.TUE(m.Traffic(), 1), 1<<20)
	fmt.Print(m.Causes.Table("  where the modify's bytes went:"))

	// 3. A compressible document uploads smaller than its size.
	m = measure(func() error { return sim.CreateTextFile("docs/thesis.txt", 512<<10) })
	fmt.Printf("create 512KB doc: traffic %8d B  TUE %5.2f (compression)\n",
		m.Traffic(), cloudsync.TUE(m.Traffic(), 512<<10))

	// 4. An identical copy is deduplicated away.
	measure(func() error { return sim.CreateFileFromBytes("a.bin", make([]byte, 256<<10)) })
	m = measure(func() error { return sim.CreateFileFromBytes("b.bin", make([]byte, 256<<10)) })
	fmt.Printf("duplicate 256KB:  traffic %8d B  (dedup skips: %d)\n",
		m.Traffic(), sim.DedupSkips())

	// 5. Deleting even a large file is nearly free (fake deletion).
	m = measure(func() error { return sim.Delete("photos/beach.jpg") })
	fmt.Printf("delete 1MB photo: traffic %8d B\n", m.Traffic())
}
