package watchsync

import (
	"fmt"
	"hash/fnv"
	"sync"

	"cloudsync/internal/planner"
	"cloudsync/internal/protocol"
	"cloudsync/internal/syncnet"
)

// Result is the outcome of executing one transfer action.
type Result struct {
	Action planner.Action
	// Stats is filled for uploads and deltas.
	Stats syncnet.UploadStats
	Err   error
}

// Executor applies a plan's transfer actions over a pool of sync
// clients. Each worker owns one client (syncnet clients are not safe
// for concurrent use), and every action on a path runs on one worker,
// the path's owner, so the file identity and the signature a transfer
// leaves behind stay with the worker that needs them next. The workers
// run their queues in parallel: a slow delta on one file delays only
// the transfers queued after it on the same worker.
type Executor struct {
	workers []*syncnet.Client
}

// NewExecutor builds an executor over the given worker clients. At
// least one worker is required.
func NewExecutor(workers ...*syncnet.Client) *Executor {
	if len(workers) == 0 {
		panic("watchsync: executor needs at least one worker client")
	}
	return &Executor{workers: workers}
}

// owner is the index of the worker every action on path runs on:
// FNV-1a of the path modulo the pool size, the same in every tick and
// every process.
func (e *Executor) owner(path string) int {
	h := fnv.New32a()
	h.Write([]byte(path))
	return int(h.Sum32() % uint32(len(e.workers)))
}

// List fetches the remote listing through the first worker and primes
// each listed file's owner with its identity, so the owner can
// delta-update or delete a file it never synced.
func (e *Executor) List() ([]protocol.ListEntry, error) {
	entries, err := e.workers[0].List()
	if err != nil {
		return nil, err
	}
	for _, en := range entries {
		e.workers[e.owner(en.Name)].Prime(en.Name, en.FileID, !en.Deleted)
	}
	return entries, nil
}

// Apply executes the plan's transfer actions (uploads, deltas,
// deletes), each on its path's owner, and returns one Result per
// transfer, in the plan's order. Defer and no-op actions are skipped —
// they carry no network work. read supplies file content by path and
// must be safe for concurrent use.
func (e *Executor) Apply(actions []planner.Action, read func(string) ([]byte, error)) []Result {
	var transfers []planner.Action
	queues := make([][]int, len(e.workers))
	for _, a := range actions {
		switch a.Kind {
		case planner.Upload, planner.Delta, planner.Delete:
			w := e.owner(a.Path)
			queues[w] = append(queues[w], len(transfers))
			transfers = append(transfers, a)
		}
	}
	results := make([]Result, len(transfers))
	var wg sync.WaitGroup
	for w, queue := range queues {
		if len(queue) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range queue {
				results[i] = run(e.workers[w], transfers[i], read)
			}
		}()
	}
	wg.Wait()
	return results
}

func run(c *syncnet.Client, a planner.Action, read func(string) ([]byte, error)) Result {
	res := Result{Action: a}
	switch a.Kind {
	case planner.Upload, planner.Delta:
		data, err := read(a.Path)
		if err != nil {
			res.Err = fmt.Errorf("watchsync: reading %s: %w", a.Path, err)
			return res
		}
		res.Stats, res.Err = c.Upload(a.Path, data)
	case planner.Delete:
		res.Err = c.Delete(a.Path)
	}
	return res
}
