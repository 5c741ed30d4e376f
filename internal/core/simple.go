package core

import (
	"fmt"

	"cloudsync/internal/client"
	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
)

// gridCell is one pre-seeded task of a (service × access × size)
// experiment grid. Every input — including the content seed — is fixed
// before the pool runs anything, so results cannot depend on worker
// scheduling.
type gridCell struct {
	n    service.Name
	a    client.AccessMethod
	size int64
	seed int64
}

// grid enumerates the full service × access-method × size grid in the
// paper's table order, sharing one content seed per size: the paper
// uploads the *same* file to every service, and the shared seed lets
// the content fingerprint cache reuse work across cells.
func grid(sizes []int64) []gridCell {
	seeds := make([]int64, len(sizes))
	for i := range sizes {
		seeds[i] = nextSeed()
	}
	cells := make([]gridCell, 0, 6*3*len(sizes))
	for _, n := range service.All() {
		for _, a := range service.AccessMethods() {
			for i, size := range sizes {
				cells = append(cells, gridCell{n: n, a: a, size: size, seed: seeds[i]})
			}
		}
	}
	return cells
}

// Experiment1 measures the sync traffic of creating a highly
// compressed (incompressible) file of each size, for every service and
// access method — the data behind Table 6 and Fig. 3. The grid's cells
// are independent simulations and run on the parallel worker pool.
func Experiment1(sizes []int64) []Cell {
	return parallel.Map(grid(sizes), func(_ int, t gridCell) Cell {
		blob := content.Random(t.size, t.seed)
		traffic, causes := runOp(t.n, t.a, service.Options{}, func(s *service.Setup) {
			if err := s.FS.Create("file.bin", blob); err != nil {
				panic(err)
			}
		})
		return Cell{
			Service: t.n, Access: t.a, Param: float64(t.size),
			Traffic: traffic, Causes: causes, TUE: TUE(traffic, t.size),
		}
	})
}

// Experiment1PC is the Fig. 3 slice of Experiment 1: PC clients only.
func Experiment1PC(sizes []int64) []Cell { return pcCells(Experiment1(sizes)) }

// pcCells keeps the PC-client cells of a grid, in grid order.
func pcCells(cells []Cell) []Cell {
	var out []Cell
	for _, c := range cells {
		if c.Access == client.PC {
			out = append(out, c)
		}
	}
	return out
}

// BatchCreationResult is one Table 7 row fragment.
type BatchCreationResult struct {
	Service service.Name
	Access  client.AccessMethod
	Traffic int64
	TUE     float64
	// BDSDetected applies the paper's heuristic: BDS is in use when the
	// total traffic stays within an order of magnitude of the 100 KB
	// update size.
	BDSDetected bool
}

// Experiment1Batch reproduces Experiment 1′ / Table 7: move 100
// distinct 1 KB highly compressed files into the sync folder at once
// and measure the total traffic. Each (service, access) cell runs on
// the pool with a pre-reserved block of 100 content seeds.
func Experiment1Batch() []BatchCreationResult {
	const files = 100
	const fileSize = 1 << 10
	type task struct {
		n     service.Name
		a     client.AccessMethod
		seeds *seedSeq
	}
	var tasks []task
	for _, n := range service.All() {
		for _, a := range service.AccessMethods() {
			tasks = append(tasks, task{n: n, a: a, seeds: reserveSeeds(files)})
		}
	}
	return parallel.Map(tasks, func(_ int, t task) BatchCreationResult {
		traffic, _ := runOp(t.n, t.a, service.Options{}, func(s *service.Setup) {
			for i := 0; i < files; i++ {
				name := fmt.Sprintf("batch/f%03d", i)
				if err := s.FS.Create(name, content.Random(fileSize, t.seeds.Next())); err != nil {
					panic(err)
				}
			}
		})
		tue := TUE(traffic, files*fileSize)
		return BatchCreationResult{
			Service: t.n, Access: t.a, Traffic: traffic, TUE: tue,
			BDSDetected: tue <= 10,
		}
	})
}

// Experiment2 measures the sync traffic of deleting a fully
// synchronized file of each size (§ 4.2: expected negligible, because
// deletion is a metadata-only "fake deletion").
func Experiment2(sizes []int64) []Cell {
	return parallel.Map(grid(sizes), func(_ int, t gridCell) Cell {
		blob := content.Random(t.size, t.seed)
		s := service.NewSetup(t.n, t.a, service.Options{})
		if err := s.FS.Create("victim.bin", blob); err != nil {
			panic(err)
		}
		s.Clock.Run()
		traffic, causes := measure(s, func() {
			if err := s.FS.Delete("victim.bin"); err != nil {
				panic(err)
			}
		})
		return Cell{
			Service: t.n, Access: t.a, Param: float64(t.size),
			Traffic: traffic, Causes: causes,
			// For deletions the natural reference is the file
			// size, though the paper reports absolute traffic.
			TUE: TUE(traffic+1, t.size),
		}
	})
}

// Experiment3 measures the sync traffic of modifying one random byte
// of a synchronized compressed file of each size — Fig. 4, the
// experiment that exposes each service's sync granularity.
func Experiment3(sizes []int64) []Cell {
	var kept []int64
	for _, size := range sizes {
		if size >= 1 {
			kept = append(kept, size)
		}
	}
	return parallel.Map(grid(kept), func(_ int, t gridCell) Cell {
		blob := content.Random(t.size, t.seed)
		s := service.NewSetup(t.n, t.a, service.Options{})
		if err := s.FS.Create("target.bin", blob); err != nil {
			panic(err)
		}
		s.Clock.Run()
		traffic, causes := measure(s, func() {
			if err := s.FS.ModifyByte("target.bin", t.size/2); err != nil {
				panic(err)
			}
		})
		return Cell{
			Service: t.n, Access: t.a, Param: float64(t.size),
			Traffic: traffic, Causes: causes,
			TUE: TUE(traffic, 1), // one byte changed
		}
	})
}

// CompressionCell is one Table 8 measurement: a 10 MB text file
// uploaded and then downloaded.
type CompressionCell struct {
	Service  service.Name
	Access   client.AccessMethod
	UpBytes  int64
	DnBytes  int64
	Size     int64
	Detected bool // upload compression detected (traffic ≪ size)
}

// Experiment4 reproduces Table 8: create an X-byte text file (random
// English words), measure upload traffic; then download it and measure
// download traffic. Every cell uploads the same text content (one
// shared seed), as the paper does.
func Experiment4(size int64) []CompressionCell {
	seed := nextSeed()
	return parallel.Map(grid([]int64{size}), func(_ int, t gridCell) CompressionCell {
		blob := content.Text(t.size, seed)
		s := service.NewSetup(t.n, t.a, service.Options{})
		up, _ := measure(s, func() {
			if err := s.FS.Create("words.txt", blob); err != nil {
				panic(err)
			}
		})
		down, _ := measure(s, func() {
			if err := s.Client.Download("words.txt", nil); err != nil {
				panic(err)
			}
		})
		return CompressionCell{
			Service: t.n, Access: t.a,
			UpBytes: up, DnBytes: down, Size: t.size,
			Detected: up < t.size*95/100,
		}
	})
}

// TextIdealRatio reports the best-effort compression ratio of the
// experiment's text corpus (the paper's WinZip reference point: a
// 10 MB text file shrank to ≈ 4.5 MB).
func TextIdealRatio(size int64) float64 {
	blob := content.Text(size, 424242)
	return float64(comp.IdealSize(blob)) / float64(size)
}
