package watchsync

import (
	"fmt"
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
	// Version is the committed server-side version (uploads/deltas).
	Version uint64
	Err     error
}

// Executor applies a plan's transfer actions over a pool of sync
// clients. Each worker owns one client (syncnet clients are not safe
// for concurrent use); actions are pulled from a shared queue, so a
// slow delta on one file never blocks an independent upload on
// another. The planner emits at most one action per path, which is
// what makes per-path ordering a non-issue here.
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

// Workers reports the pool size.
func (e *Executor) Workers() int { return len(e.workers) }

// List fetches the remote listing through the first worker and primes
// every other worker with the learned file identities, so any worker
// can delta-update or delete any listed file.
func (e *Executor) List() ([]protocol.ListEntry, error) {
	entries, err := e.workers[0].List()
	if err != nil {
		return nil, err
	}
	for _, w := range e.workers[1:] {
		for _, en := range entries {
			w.Prime(en.Name, en.FileID, !en.Deleted)
		}
	}
	return entries, nil
}

// Apply executes the plan's transfer actions (uploads, deltas,
// deletes) in parallel and returns one Result per transfer, in the
// plan's order. Defer and no-op actions are skipped — they carry no
// network work. read supplies file content by path and must be safe
// for concurrent use. After the wave completes, file identities
// learned by one worker are propagated to the whole pool.
func (e *Executor) Apply(actions []planner.Action, read func(string) ([]byte, error)) []Result {
	var transfers []planner.Action
	for _, a := range actions {
		switch a.Kind {
		case planner.Upload, planner.Delta, planner.Delete:
			transfers = append(transfers, a)
		}
	}
	results := make([]Result, len(transfers))
	ranOn := make([]*syncnet.Client, len(transfers))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(c *syncnet.Client) {
			defer wg.Done()
			for i := range jobs {
				results[i] = e.run(c, transfers[i], read)
				ranOn[i] = c
			}
		}(w)
	}
	for i := range transfers {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Propagate learned identities: a file uploaded by worker 2 must be
	// deletable by worker 0 in a later round. The worker that ran the
	// action is left alone — it knows, and priming would make it forget
	// the signature its delta sync ended on.
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			continue
		}
		id, ok := ranOn[i].FileID(r.Action.Path)
		if !ok {
			continue
		}
		for _, other := range e.workers {
			if other != ranOn[i] {
				other.Prime(r.Action.Path, id, r.Action.Kind != planner.Delete)
			}
		}
	}
	return results
}

func (e *Executor) run(c *syncnet.Client, a planner.Action, read func(string) ([]byte, error)) Result {
	res := Result{Action: a}
	switch a.Kind {
	case planner.Upload, planner.Delta:
		data, err := read(a.Path)
		if err != nil {
			res.Err = fmt.Errorf("watchsync: reading %s: %w", a.Path, err)
			return res
		}
		stats, err := c.Upload(a.Path, data)
		res.Stats, res.Version, res.Err = stats, stats.Version, err
	case planner.Delete:
		res.Err = c.Delete(a.Path)
	}
	return res
}
