package watchsync

import (
	"fmt"
	"time"

	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/planner"
	"cloudsync/internal/protocol"
)

// Config are the pipeline's policy knobs.
type Config struct {
	// Debounce is the change buffer's quiet window.
	Debounce time.Duration
	// Defer is the sync-deferment policy the planner steps.
	Defer deferpolicy.Policy
	// BaselinePath, when non-empty, persists the baseline atomically
	// after every round that changed it.
	BaselinePath string
}

// TickStats summarizes one pipeline round.
type TickStats struct {
	Planned   int // actions in the round's plan
	Uploads   int // full uploads executed successfully
	Deltas    int // delta syncs executed successfully
	Deletes   int // deletions executed successfully
	Deferred  int // paths the planner chose to keep local for now
	NoOps     int // actions that moved no bytes
	Errors    int // transfers that failed (kept pending for retry)
	WireBytes int // payload bytes put on the wire by this round's uploads
}

// Pipeline wires observer → buffer → planner → executor → baseline
// into one watch-mode sync loop. All methods run on the caller's
// goroutine and a virtual clock; the pipeline itself never reads wall
// time, spawns goroutines (the executor's workers live only within a
// Tick), or sleeps — scheduling is the caller's job, guided by the
// wake-up times each Tick returns.
type Pipeline struct {
	src  Source
	exec *Executor
	cfg  Config

	buf        *Buffer
	open       map[string]Pending // drained, not yet resolved (deferred or failed)
	baseline   map[string]planner.FileMeta
	remote     map[string]planner.RemoteFile
	remoteOK   bool
	deferState map[string]planner.DeferState
	dirty      bool // baseline changed since last successful save
	scanned    bool // first scan done — baseline reconciled against disk
}

// NewPipeline assembles a pipeline. Call Bootstrap before the first
// Tick to load the persisted baseline and fetch the remote listing.
func NewPipeline(src Source, exec *Executor, cfg Config) *Pipeline {
	return &Pipeline{
		src:        src,
		exec:       exec,
		cfg:        cfg,
		buf:        NewBuffer(cfg.Debounce),
		open:       make(map[string]Pending),
		baseline:   make(map[string]planner.FileMeta),
		remote:     make(map[string]planner.RemoteFile),
		deferState: make(map[string]planner.DeferState),
	}
}

// Baseline exposes the current last-synced snapshot (shared map; do
// not mutate). Tests and the dry-run path read it.
func (p *Pipeline) Baseline() map[string]planner.FileMeta { return p.baseline }

// PendingPaths reports how many paths are waiting in the buffer or
// deferred/retrying — zero means the pipeline is fully converged with
// its last observation.
func (p *Pipeline) PendingPaths() int { return p.buf.Len() + len(p.open) }

// Bootstrap loads the persisted baseline and fetches the remote
// listing, priming every worker. It must run once before Tick.
func (p *Pipeline) Bootstrap() error {
	if p.cfg.BaselinePath != "" {
		base, err := LoadBaseline(p.cfg.BaselinePath)
		if err != nil {
			return err
		}
		p.baseline = base
	}
	entries, err := p.exec.List()
	if err != nil {
		return fmt.Errorf("watchsync: fetching remote listing: %w", err)
	}
	p.remote = make(map[string]planner.RemoteFile, len(entries))
	for _, en := range entries {
		p.remote[en.Name] = planner.RemoteFile{
			FileID:  en.FileID,
			Size:    en.Size,
			Hash:    en.FileHash,
			Version: en.Version,
			Deleted: en.Deleted,
		}
	}
	p.remoteOK = true
	return nil
}

// Poll scans the source once and feeds the observed events into the
// change buffer at observation time now. Run Bootstrap first: the
// initial poll reconciles the loaded baseline against the scan.
func (p *Pipeline) Poll(now time.Duration) error {
	evs, err := p.src.Scan(now)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		p.buf.Note(ev, now)
	}
	// The first scan is a full listing (a fresh watcher reports every
	// existing file as a create), so baseline entries it does not
	// mention were deleted while no watcher was running. Synthesize
	// their removes here — no future event will ever name those paths,
	// and without this a restart strands them on the server forever.
	if !p.scanned {
		p.scanned = true
		seen := make(map[string]bool, len(evs))
		for _, ev := range evs {
			seen[ev.Path] = true
		}
		for path := range p.baseline {
			if !seen[path] {
				p.buf.Note(Event{Path: path, Remove: true}, now)
			}
		}
	}
	return nil
}

// Tick runs one round: drain the debounced buffer, plan, execute the
// ready transfers, fold the results back into baseline and remote
// state, and persist the baseline if it moved. It returns the round's
// stats plus the earliest virtual time at which new work becomes ready
// (wake=false when nothing is pending at all).
func (p *Pipeline) Tick(now time.Duration) (TickStats, time.Duration, bool, error) {
	var st TickStats

	// Merge newly quiet paths into the open set. A path re-modified
	// while deferred accumulates its new writes onto the open record.
	for _, pen := range p.buf.Drain(now) {
		prev, ok := p.open[pen.Path]
		if !ok || pen.Remove || prev.Remove {
			p.open[pen.Path] = pen
			continue
		}
		writes := prev.Writes
		for _, w := range pen.Writes {
			if n := len(writes); n > 0 && w < writes[n-1] {
				w = writes[n-1]
			}
			writes = append(writes, w)
		}
		p.open[pen.Path] = Pending{Path: pen.Path, Writes: writes}
	}

	in := planner.Input{
		Now:         now,
		Baseline:    p.baseline,
		Remote:      p.remote,
		RemoteKnown: p.remoteOK,
		Defer:       p.cfg.Defer,
		DeferState:  p.deferState,
	}
	for path, pen := range p.open {
		ch := planner.Change{Path: path, Remove: pen.Remove, Writes: pen.Writes}
		if !pen.Remove {
			data, err := p.src.Read(path)
			if err != nil {
				// Vanished between observation and read: treat as removed;
				// the delete event will confirm on the next poll.
				ch = planner.Change{Path: path, Remove: true}
			} else {
				ch.Size = int64(len(data))
				ch.Hash = protocol.Sum(data)
			}
		}
		in.Changes = append(in.Changes, ch)
	}

	out := planner.Plan(in)
	st.Planned = len(out.Actions)

	// The plan consumed every pending write: whatever stays open (defers,
	// failed transfers) must not replay them, or ASD would double-count.
	for path, pen := range p.open {
		pen.Writes = nil
		p.open[path] = pen
	}
	p.deferState = out.DeferState

	results := p.exec.Apply(out.Actions, p.src.Read)
	ri := 0
	for _, a := range out.Actions {
		switch a.Kind {
		case planner.Upload, planner.Delta, planner.Delete:
			res := results[ri]
			ri++
			if res.Err != nil {
				st.Errors++ // stays open; retried next tick
				continue
			}
			switch a.Kind {
			case planner.Delete:
				st.Deletes++
				delete(p.baseline, a.Path)
				if r, ok := p.remote[a.Path]; ok {
					r.Deleted = true
					r.Version++
					p.remote[a.Path] = r
				}
			default:
				if res.Stats.DeltaSync {
					st.Deltas++
				} else {
					st.Uploads++
				}
				st.WireBytes += res.Stats.PayloadBytes
				meta := planner.FileMeta{Size: a.Size, Hash: a.Hash, Version: res.Stats.Version}
				p.baseline[a.Path] = meta
				if p.remoteOK {
					id := p.remote[a.Path].FileID
					p.remote[a.Path] = planner.RemoteFile{
						FileID: id, Size: a.Size, Hash: a.Hash, Version: res.Stats.Version,
					}
				}
			}
			p.dirty = true
			delete(p.open, a.Path)
		case planner.NoOp:
			st.NoOps++
			if a.Absent {
				if _, ok := p.baseline[a.Path]; ok {
					delete(p.baseline, a.Path)
					p.dirty = true
				}
			} else {
				meta := planner.FileMeta{Size: a.Size, Hash: a.Hash, Version: a.Version}
				if meta.Version == 0 {
					meta.Version = p.baseline[a.Path].Version
				}
				if p.baseline[a.Path] != meta {
					p.baseline[a.Path] = meta
					p.dirty = true
				}
			}
			delete(p.open, a.Path)
		case planner.Defer:
			st.Deferred++
		}
	}

	if p.dirty && p.cfg.BaselinePath != "" {
		if err := SaveBaseline(p.cfg.BaselinePath, p.baseline); err != nil {
			return st, 0, false, err
		}
		p.dirty = false
	}

	// Next wake: the earlier of the buffer's next release and the plan's
	// next defer deadline. Failed transfers retry at the caller's next
	// natural tick.
	wakeAt, wake := p.buf.NextRelease()
	if out.Wake && (!wake || out.NextWake < wakeAt) {
		wakeAt, wake = out.NextWake, true
	}
	if st.Errors > 0 && !wake {
		wakeAt, wake = now, true
	}
	return st, wakeAt, wake, nil
}
