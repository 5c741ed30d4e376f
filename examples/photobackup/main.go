// Photo backup: importing a folder of many small files at once — the
// workload behind Table 7. Services with batched data sync (BDS) move
// roughly the payload; services without it pay the per-file overhead
// hundreds of times.
package main

import (
	"fmt"

	"cloudsync"
)

func importFolder(svc cloudsync.Service, files int, fileSize int64) (traffic int64, tue float64) {
	sim := cloudsync.New(svc, cloudsync.PC)
	m := sim.Measure(func() {
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("camera/IMG_%04d.jpg", i)
			if err := sim.CreateRandomFile(name, fileSize); err != nil {
				panic(err)
			}
		}
	})
	return m.Traffic(), cloudsync.TUE(m.Traffic(), int64(files)*fileSize)
}

func main() {
	const files = 200
	const fileSize = 4 << 10 // small thumbnails / sidecar files

	fmt.Printf("Importing %d × %d KB files into each service (PC client)\n\n",
		files, fileSize>>10)
	fmt.Printf("%-14s %12s %8s\n", "Service", "traffic", "TUE")
	for _, svc := range cloudsync.Services() {
		traffic, tue := importFolder(svc, files, fileSize)
		marker := ""
		if tue < 3 {
			marker = "  ← batched data sync"
		}
		fmt.Printf("%-14s %10.2f MB %8.1f%s\n",
			svc, float64(traffic)/(1<<20), tue, marker)
	}
	fmt.Println()
	fmt.Printf("payload is only %.2f MB — everything above that is overhead\n",
		float64(files*fileSize)/(1<<20))
}
