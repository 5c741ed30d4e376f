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

// runGrid measures body on a fresh setup of every grid(sizes) cell, on
// the worker pool.
func runGrid(sizes []int64, body func(s *service.Setup, size, seed int64) Cell) []Cell {
	return parallel.Map(grid(sizes), func(_ int, t gridCell) Cell {
		return body(service.NewSetup(t.n, t.a, service.Options{}), t.size, t.seed)
	})
}

// The simple experiments' cell bodies. Each runs its experiment's one
// operation on s, a fresh setup, with content seeded from seed, and
// returns the measured cell. The experiment grids and MeasureCell (so
// tuebench -cell) run the same bodies: a cell on the command line is
// the table's cell.

// createCell is Experiment 1's cell (Table 6, Fig. 3): create an
// incompressible file of size bytes.
func createCell(s *service.Setup, size, seed int64) Cell {
	blob := content.Random(size, seed)
	return cellOf(s, float64(size), Measure(s, func() { must(s.FS.Create("file.bin", blob)) }), size)
}

// batchCell is Experiment 1′'s cell (Table 7): move files distinct
// 1 KB incompressible files into the sync folder at once.
func batchCell(s *service.Setup, files int, seeds *seedSeq) Cell {
	m := Measure(s, func() {
		for i := 0; i < files; i++ {
			must(s.FS.Create(fmt.Sprintf("batch/f%03d", i), content.Random(1<<10, seeds.Next())))
		}
	})
	return cellOf(s, float64(files), m, int64(files)<<10)
}

// deleteCell is Experiment 2's cell: delete a synced file of size bytes.
func deleteCell(s *service.Setup, size, seed int64) Cell {
	must(s.FS.Create("victim.bin", content.Random(size, seed)))
	s.Clock.Run()
	c := cellOf(s, float64(size), Measure(s, func() { must(s.FS.Delete("victim.bin")) }), size)
	// For deletions the natural reference is the file size, though the
	// paper reports absolute traffic.
	c.TUE = TUE(c.Traffic+1, size)
	return c
}

// modifyCell is Experiment 3's cell (Fig. 4): modify one byte in the
// middle of a synced incompressible file of size bytes.
func modifyCell(s *service.Setup, size, seed int64) Cell {
	must(s.FS.Create("target.bin", content.Random(size, seed)))
	s.Clock.Run()
	m := Measure(s, func() { must(s.FS.ModifyByte("target.bin", size/2)) })
	return cellOf(s, float64(size), m, 1) // one byte changed
}

// downloadCell is Table 8's second phase: fetch name, a file of size
// bytes that s has synced, back from the cloud.
func downloadCell(s *service.Setup, name string, size int64) Cell {
	return cellOf(s, float64(size), Measure(s, func() { must(s.Client.Download(name, nil)) }), size)
}

// MeasureCell runs the simple experiment op's cell body on s, drawing
// content seeds from the counter as the experiment does: after the
// same draws, it returns the experiment's cell byte for byte. param is
// the file size in bytes for create, modify, delete and download; the
// append period X in seconds for append (AppendTotal bytes in all);
// and the number of 1 KB files for batch.
func MeasureCell(s *service.Setup, op string, param float64) (Cell, error) {
	n := int64(param)
	if op == "append" {
		n = int64(param * 1024) // the bytes appended every X seconds
	}
	if n < 1 || (op != "append" && float64(n) != param) {
		return Cell{}, fmt.Errorf("core: %s cell with parameter %v", op, param)
	}
	switch op {
	case "create":
		return createCell(s, n, nextSeed()), nil
	case "modify":
		return modifyCell(s, n, nextSeed()), nil
	case "delete":
		return deleteCell(s, n, nextSeed()), nil
	case "download":
		must(s.FS.Create("file.bin", content.Random(n, nextSeed())))
		s.Clock.Run()
		return downloadCell(s, "file.bin", n), nil
	case "append":
		return appendCell(s, param, nextSeed()), nil
	case "batch":
		return batchCell(s, int(n), reserveSeeds(n)), nil
	}
	return Cell{}, fmt.Errorf("core: unknown cell op %q (create, modify, delete, download, append, batch)", op)
}

// Experiment1 measures the sync traffic of creating a highly
// compressed (incompressible) file of each size, for every service and
// access method — the data behind Table 6 and Fig. 3. The grid's cells
// are independent simulations and run on the parallel worker pool.
func Experiment1(sizes []int64) []Cell { return runGrid(sizes, createCell) }

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

// batchFiles is Table 7's file count.
const batchFiles = 100

// Experiment1Batch reproduces Experiment 1′ / Table 7: move 100
// distinct 1 KB highly compressed files into the sync folder at once
// and measure the total traffic. Each (service, access) cell runs on
// the pool with a pre-reserved block of 100 content seeds. The paper
// infers batched data sync (BDS) where a cell's TUE stays within an
// order of magnitude of 1.
func Experiment1Batch() []Cell {
	type task struct {
		n     service.Name
		a     client.AccessMethod
		seeds *seedSeq
	}
	var tasks []task
	for _, n := range service.All() {
		for _, a := range service.AccessMethods() {
			tasks = append(tasks, task{n: n, a: a, seeds: reserveSeeds(batchFiles)})
		}
	}
	return parallel.Map(tasks, func(_ int, t task) Cell {
		return batchCell(service.NewSetup(t.n, t.a, service.Options{}), batchFiles, t.seeds)
	})
}

// Experiment2 measures the sync traffic of deleting a fully
// synchronized file of each size (§ 4.2: expected negligible, because
// deletion is a metadata-only "fake deletion").
func Experiment2(sizes []int64) []Cell { return runGrid(sizes, deleteCell) }

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
	return runGrid(kept, modifyCell)
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
		up := Measure(s, func() { must(s.FS.Create("words.txt", blob)) }).Traffic()
		down := downloadCell(s, "words.txt", t.size).Traffic
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
