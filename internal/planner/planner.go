// Package planner is the pure heart of the watch-mode sync pipeline:
// a deterministic, I/O-free reconciliation function that turns (confirmed
// baseline, pending local changes, remote listing, deferment policy)
// into an ordered list of sync actions.
//
// Purity is the point. The planner never touches the filesystem, the
// network, or a wall clock — every timestamp it reasons about arrives
// as an input, and the adaptive sync defer (ASD) estimator is advanced
// with deferpolicy's pure step function, its state threaded through
// Input/Plan by value. Equal inputs therefore produce equal plans,
// which turns every sync scenario — create/modify/delete races,
// defer-window boundaries, local–remote divergence, crash-restart
// reconciliation — into a table-driven test over plain structs
// (planner_table_test.go) and lets a property harness replay thousands
// of interleavings with exact expectations. An enforcement test
// (purity_test.go) rejects any import or time.Now-style call that
// would break the contract.
//
// The planner implements a one-way mirror (local wins): local state is
// authoritative, remote divergence is repaired by re-uploading, and
// remote-only files are ignored. Conflict-aware bidirectional merging
// is a planned extension; because planning is pure, it will arrive as
// new table rows, not new machinery.
package planner

import (
	"fmt"
	"sort"
	"time"

	"cloudsync/internal/deferpolicy"
)

// FileMeta is one file's confirmed synced state in the baseline: what
// the client last uploaded and the server acknowledged.
type FileMeta struct {
	Size    int64
	Hash    [16]byte
	Version uint64
}

// RemoteFile is one file's state in the remote listing.
type RemoteFile struct {
	FileID  uint64
	Size    int64
	Hash    [16]byte // zero = unknown (never "matches")
	Version uint64
	Deleted bool
}

// Change is one pending, already-coalesced local change — the change
// buffer guarantees at most one Change per path per planning round.
type Change struct {
	Path string
	// Remove marks that the file no longer exists locally. Size, Hash,
	// and Writes are meaningless for removes.
	Remove bool
	// Size and Hash describe the current local content.
	Size int64
	Hash [16]byte
	// Writes lists the virtual times of the write events observed since
	// the previous planning round, ascending. The planner folds them
	// into the defer estimator exactly once: callers must clear a
	// pending change's Writes after planning (the returned DeferState
	// carries their effect forward).
	Writes []time.Duration
}

// DeferState is one path's deferment state, threaded by value through
// planning rounds: the policy's state (the ASD estimator) plus the
// armed defer deadline for the currently pending change.
type DeferState struct {
	ASD deferpolicy.ASDState
	// Deadline is the virtual time the pending change becomes ready to
	// sync; meaningful only while Armed.
	Deadline time.Duration
	Armed    bool
}

// Input is everything a planning round may depend on.
type Input struct {
	// Now is the virtual time of this planning round. The planner never
	// consults a clock; this is the only notion of "now" it has.
	Now time.Duration
	// Baseline is the confirmed synced state (nil = empty).
	Baseline map[string]FileMeta
	// Changes are the pending local changes, at most one per path.
	Changes []Change
	// Remote is the server listing and RemoteKnown marks it as present:
	// an empty-but-known remote ("server holds nothing") plans very
	// differently from an unknown one ("trust the baseline").
	Remote      map[string]RemoteFile
	RemoteKnown bool
	// Defer is the deferment policy (§6.1) applied to write changes;
	// removes always sync immediately — a deferred deletion saves no
	// payload bytes and risks resurrecting the file on a crash.
	// DeferState carries per-path estimator state from the previous
	// round (nil = fresh).
	Defer      deferpolicy.Policy
	DeferState map[string]DeferState
}

// ActionKind classifies one planned action.
type ActionKind uint8

const (
	// NoOp: nothing to transfer; may still carry a baseline correction.
	NoOp ActionKind = iota
	// Upload: full-content upload (dedup probing still applies).
	Upload
	// Delta: incremental update against the server's live version.
	Delta
	// Delete: remove the file server-side.
	Delete
	// Defer: the change is pending but its defer window is open; re-plan
	// at Until.
	Defer
)

// String names the kind.
func (k ActionKind) String() string {
	switch k {
	case NoOp:
		return "no-op"
	case Upload:
		return "upload"
	case Delta:
		return "delta"
	case Delete:
		return "delete"
	case Defer:
		return "defer"
	default:
		return fmt.Sprintf("action(%d)", uint8(k))
	}
}

// Action is one planned sync step. For non-remove actions Size/Hash
// describe the local content the action syncs (for NoOp, the content
// the baseline entry should record); Version, when nonzero, is the
// remote version the baseline should record for a NoOp. Absent marks
// actions whose success removes the baseline entry.
type Action struct {
	Kind    ActionKind
	Path    string
	Size    int64
	Hash    [16]byte
	Version uint64
	// Until is the re-plan time for Defer actions.
	Until time.Duration
	// Absent: the path no longer exists locally; applying this action
	// drops it from the baseline.
	Absent bool
	// Reason is a short human-readable justification, stable per
	// decision branch (rendered by FormatTable and syncwatch -dry-run).
	Reason string
}

// Output is a planning round's complete result.
type Output struct {
	// Now echoes the input's virtual time (used by renderers).
	Now time.Duration
	// Actions, ordered: uploads/deltas first, then deletes, then defers,
	// then no-ops; by path within each group. Uploads-before-deletes
	// mirrors the scanner's rename ordering (create before delete), so
	// a rename never leaves the remote without the content.
	Actions []Action
	// DeferState is the successor per-path deferment state; callers
	// thread it into the next round's Input verbatim.
	DeferState map[string]DeferState
	// NextWake is the earliest Defer deadline, valid when Wake is true:
	// re-planning before then cannot release any deferred change
	// (absent new writes).
	NextWake time.Duration
	Wake     bool
}

// kindOrder gives the execution-priority group for sorting.
func kindOrder(k ActionKind) int {
	switch k {
	case Upload, Delta:
		return 0
	case Delete:
		return 1
	case Defer:
		return 2
	default:
		return 3
	}
}

// Plan reconciles one round. It is a pure function: no I/O, no clock,
// no mutation of its inputs, and equal inputs yield equal plans.
//
// Contract violations — an invalid policy, duplicate change paths,
// descending write timestamps — panic rather than degrade, because
// they indicate a broken caller, not a planable state.
func Plan(in Input) Output {
	if err := in.Defer.Validate(); err != nil {
		panic("planner: " + err.Error())
	}
	out := Output{Now: in.Now, DeferState: make(map[string]DeferState)}

	changes := make(map[string]*Change, len(in.Changes))
	order := make([]string, 0, len(in.Changes))
	for i := range in.Changes {
		ch := &in.Changes[i]
		if _, dup := changes[ch.Path]; dup {
			panic(fmt.Sprintf("planner: duplicate change for %q", ch.Path))
		}
		for j := 1; j < len(ch.Writes); j++ {
			if ch.Writes[j] < ch.Writes[j-1] {
				panic(fmt.Sprintf("planner: descending write times for %q", ch.Path))
			}
		}
		changes[ch.Path] = ch
		order = append(order, ch.Path)
	}
	sort.Strings(order)

	remote := func(path string) (RemoteFile, bool) {
		if !in.RemoteKnown {
			return RemoteFile{}, false
		}
		r, ok := in.Remote[path]
		return r, ok
	}

	for _, path := range order {
		ch := changes[path]
		base, hasBase := in.Baseline[path]
		r, hasRemote := remote(path)
		liveRemote := hasRemote && !r.Deleted

		if ch.Remove {
			// Removes sync immediately; deferring a delete saves nothing.
			switch {
			case in.RemoteKnown && !liveRemote:
				out.Actions = append(out.Actions, Action{
					Kind: NoOp, Path: path, Absent: true,
					Reason: "already absent remotely",
				})
			case !in.RemoteKnown && !hasBase:
				out.Actions = append(out.Actions, Action{
					Kind: NoOp, Path: path, Absent: true,
					Reason: "never synced",
				})
			default:
				out.Actions = append(out.Actions, Action{
					Kind: Delete, Path: path, Absent: true,
					Reason: "removed locally",
				})
			}
			continue
		}

		// Each write is one policy step; the change's size is the
		// pending byte count UDS compares with its threshold.
		st := in.DeferState[path]
		for _, w := range ch.Writes {
			var delay time.Duration
			delay, st.ASD = in.Defer.Step(st.ASD, w, ch.Size)
			st.Deadline, st.Armed = w+delay, delay > 0
		}
		if st.Armed && st.Deadline > in.Now {
			out.Actions = append(out.Actions, Action{
				Kind: Defer, Path: path, Size: ch.Size, Hash: ch.Hash,
				Until: st.Deadline, Reason: "defer window open",
			})
			out.DeferState[path] = st
			if !out.Wake || st.Deadline < out.NextWake {
				out.NextWake, out.Wake = st.Deadline, true
			}
			continue
		}
		// Ready: the deadline is spent, but the ASD estimator's memory of
		// the update stream survives across syncs (Eq. 2 wants a long idle
		// gap to lengthen the next deferment, capped at TMax).
		st.Armed = false
		if st.ASD.Seen {
			out.DeferState[path] = st
		}

		action := Action{Path: path, Size: ch.Size, Hash: ch.Hash}
		var zero [16]byte
		switch {
		case liveRemote && r.Hash != zero && r.Hash == ch.Hash && r.Size == ch.Size:
			action.Kind, action.Version = NoOp, r.Version
			action.Reason = "remote already matches"
		case hasBase && base.Hash == ch.Hash && base.Size == ch.Size && !in.RemoteKnown:
			action.Kind, action.Version = NoOp, base.Version
			action.Reason = "unchanged since baseline"
		case liveRemote:
			action.Kind = Delta
			if hasBase && base.Hash == ch.Hash && base.Size == ch.Size {
				action.Reason = "remote diverged; local wins"
			} else {
				action.Reason = "modified locally"
			}
		case !in.RemoteKnown && hasBase:
			action.Kind, action.Reason = Delta, "modified locally"
		default:
			action.Kind = Upload
			if hasBase {
				action.Reason = "remote missing; restore"
			} else {
				action.Reason = "new file"
			}
		}
		out.Actions = append(out.Actions, action)
	}

	// ASD estimator memory survives quiet rounds: a path with no pending
	// change keeps its inter-update estimate (disarmed — a deadline
	// without a pending change is meaningless), so the next edit's
	// deferment reflects the file's whole update history, not just the
	// burst since the last sync. Removes fall out naturally: their paths
	// are pending this round and never re-added here.
	for path, st := range in.DeferState {
		if _, pending := changes[path]; pending {
			continue
		}
		if st.ASD.Seen {
			out.DeferState[path] = DeferState{ASD: st.ASD}
		}
	}

	// Divergence repair: baseline entries with no pending local change.
	// The baseline asserts "the local file has this content" (any local
	// edit would have produced a change), so a remote that disagrees is
	// repaired from local state. Only possible with a listing in hand.
	if in.RemoteKnown {
		repair := make([]string, 0)
		for path := range in.Baseline {
			if _, pending := changes[path]; !pending {
				repair = append(repair, path)
			}
		}
		sort.Strings(repair)
		for _, path := range repair {
			base := in.Baseline[path]
			r, hasRemote := remote(path)
			var zero [16]byte
			switch {
			case !hasRemote || r.Deleted:
				out.Actions = append(out.Actions, Action{
					Kind: Upload, Path: path, Size: base.Size, Hash: base.Hash,
					Reason: "remote missing; restore",
				})
			case r.Hash != zero && r.Hash != base.Hash:
				out.Actions = append(out.Actions, Action{
					Kind: Delta, Path: path, Size: base.Size, Hash: base.Hash,
					Reason: "remote diverged; local wins",
				})
			case r.Version != base.Version:
				out.Actions = append(out.Actions, Action{
					Kind: NoOp, Path: path, Size: base.Size, Hash: base.Hash,
					Version: r.Version, Reason: "record remote version",
				})
			}
		}
	}

	sort.SliceStable(out.Actions, func(i, j int) bool {
		a, b := &out.Actions[i], &out.Actions[j]
		if ka, kb := kindOrder(a.Kind), kindOrder(b.Kind); ka != kb {
			return ka < kb
		}
		return a.Path < b.Path
	})
	return out
}
