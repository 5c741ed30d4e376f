// Package invariant is a reusable correctness harness for the sync
// path. A Tracker records the operations a client believes succeeded —
// uploads, downloads, deletions — and Check then compares that
// expectation against a snapshot of the server's state and the wire
// counters, after an arbitrary fault schedule has battered the
// connection in between.
//
// The harness asserts four invariants that must survive any fault
// schedule:
//
//  1. Convergence: every file the client committed exists server-side
//     with byte-identical (hash-equal) content, and every file the
//     client deleted is gone (or fake-deleted).
//  2. Monotone versions: the server-side version of a file never runs
//     backwards, and each committed update strictly advances it.
//  3. TUE floor: for fresh (never-before-seen) uncompressed content,
//     the client must put at least as many bytes on the wire as the
//     content it updated — TUE ≥ 1, the paper's lower bound for a sync
//     protocol without compression to hide behind. Retransmissions and
//     retries can only push TUE up, never below 1.
//  4. Wire balance: the server cannot receive more client→server bytes
//     than the client sent, and (on a lossless transport) the two
//     counters must agree exactly.
//
// Beside Check, CheckStored holds one acknowledged upload against the
// bytes the server stores, CheckListing holds a client's listing
// against the server's state, CheckRecovery holds a reopened durable
// store against the state as of the last acknowledgement, and
// CheckLedger holds a traffic-attribution ledger against its wire
// total.
//
// The package has no dependencies on the simulator or the live syncnet
// stack; its callers adapt either side into ServerFile / Wire values.
// Those live in this package's tests: TestSimInvariants runs the
// simulator, and TestWorldInvariants runs seeded worlds of live devices,
// link cuts, server reopens and WAL crashes (world_test.go), as do four
// narrower bands of one fault family each.
package invariant

import (
	"bytes"
	"fmt"
	"sort"

	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// Violation is one broken invariant.
type Violation struct {
	// Invariant names the broken property. Check reports
	// "convergence", "versions", "tue-floor" and "wire-balance";
	// CheckStored "stored"; CheckListing "listing"; CheckRecovery
	// "recovery"; CheckLedger "ledger-balance". The tests add their own,
	// such as "failed-op" for an operation that failed outright.
	Invariant string
	// Detail is a human-readable description of the breakage.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// ServerFile is one file's server-side state as seen by a driver's
// snapshot. History is the number of versions the server ever stored
// for the name; 0 means the driver cannot report it and disables the
// history check. ID is the server-assigned file identity; 0 means the
// driver cannot report it and disables identity checks.
type ServerFile struct {
	ID      uint64
	Data    []byte
	Version uint64
	Deleted bool
	History int
}

// Wire carries the byte counters for the client→server direction.
// The zero value means "no wire data recorded" and disables the wire
// checks (balance and TUE floor).
type Wire struct {
	// ClientSent is the bytes the client actually put on the wire
	// (after any fault truncation), across every attempt.
	ClientSent int64
	// ServerReceived is the bytes the server read off its client
	// connections.
	ServerReceived int64
	// MaxLost bounds ClientSent − ServerReceived: bytes legitimately in
	// flight when a connection was cut. 0 demands exact balance (right
	// for synchronous transports like net.Pipe); −1 keeps only the sign
	// check ServerReceived ≤ ClientSent (right for real TCP, where the
	// kernel may buffer bytes a dying session never read).
	MaxLost int64
}

func (w Wire) zero() bool {
	return w.ClientSent == 0 && w.ServerReceived == 0 && w.MaxLost == 0
}

type trackedFile struct {
	data     []byte
	version  uint64
	versions int // successful commits observed for this name
	deleted  bool
}

// Tracker accumulates the client-side expectation while a driver
// applies operations. It is not safe for concurrent use; drive it from
// the goroutine that owns the client.
type Tracker struct {
	// Compressed marks a configuration where content is compressed on
	// the wire, which can legitimately push traffic below the update
	// size; it disables the TUE-floor check.
	Compressed bool

	files      map[string]*trackedFile
	seen       map[protocol.Fingerprint]bool
	freshBytes int64
	violations []Violation
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		files: make(map[string]*trackedFile),
		seen:  make(map[protocol.Fingerprint]bool),
	}
}

func (t *Tracker) violatef(invariant, format string, args ...any) {
	t.violations = append(t.violations, Violation{
		Invariant: invariant, Detail: fmt.Sprintf(format, args...),
	})
}

// RecordUpload notes a committed upload: name now holds data at the
// given server version. Content the tracker has never seen before
// counts toward the TUE floor — deduplication cannot save bytes on
// genuinely novel content, so the wire must carry at least that much.
func (t *Tracker) RecordUpload(name string, data []byte, version uint64) {
	t.record(name, data, version, true)
}

// RecordEdit notes a committed upload of content derived from bytes the
// server already holds — an in-place edit, a truncation. A delta sync
// legitimately moves less than such a file, so it never counts toward
// the TUE floor.
func (t *Tracker) RecordEdit(name string, data []byte, version uint64) {
	t.record(name, data, version, false)
}

func (t *Tracker) record(name string, data []byte, version uint64, fresh bool) {
	f := t.files[name]
	if f == nil {
		f = &trackedFile{}
		t.files[name] = f
	} else if !f.deleted && version <= f.version {
		t.violatef("versions", "%q: commit acknowledged version %d, not above previous %d",
			name, version, f.version)
	}
	f.data = append([]byte(nil), data...)
	f.version = version
	f.versions++
	f.deleted = false

	sum := protocol.Sum(data)
	if !t.seen[sum] && fresh {
		t.freshBytes += int64(len(data))
	}
	t.seen[sum] = true
}

// RecordDelete notes a successful deletion of name.
func (t *Tracker) RecordDelete(name string) {
	f := t.files[name]
	if f == nil {
		t.violatef("convergence", "%q: deletion succeeded for a file never uploaded", name)
		return
	}
	f.deleted = true
	f.data = nil
}

// RecordDownload checks a download against the tracked expectation —
// the read-your-writes half of convergence.
func (t *Tracker) RecordDownload(name string, data []byte) {
	f := t.files[name]
	switch {
	case f == nil || f.deleted:
		t.violatef("convergence", "%q: download succeeded for a file that should not exist", name)
	case !bytes.Equal(f.data, data):
		t.violatef("convergence", "%q: downloaded %d bytes (hash %x), expected %d bytes (hash %x)",
			name, len(data), protocol.Sum(data), len(f.data), protocol.Sum(f.data))
	}
}

// FreshBytes is the novel-content byte volume recorded so far — the
// denominator of the TUE floor.
func (t *Tracker) FreshBytes() int64 { return t.freshBytes }

// Check compares the tracked expectation against a server snapshot and
// the wire counters, returning every violation found (record-time
// violations included). Server files the tracker never touched are
// ignored: the tracker may deliberately hold a partial view.
func (t *Tracker) Check(server map[string]ServerFile, w Wire) []Violation {
	out := append([]Violation(nil), t.violations...)
	report := func(invariant, format string, args ...any) {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	names := make([]string, 0, len(t.files))
	for name := range t.files {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		f := t.files[name]
		sf, ok := server[name]
		if f.deleted {
			// Fake deletion may keep the entry with a Deleted flag, or
			// the driver may omit deleted entries entirely.
			if ok && !sf.Deleted {
				report("convergence", "%q: deleted by the client but still live server-side (v%d, %d bytes)",
					name, sf.Version, len(sf.Data))
			}
			if ok && sf.Version < f.version {
				report("versions", "%q: server version %d ran backwards past committed %d",
					name, sf.Version, f.version)
			}
			continue
		}
		if !ok || sf.Deleted {
			report("convergence", "%q: committed at version %d but missing server-side", name, f.version)
			continue
		}
		if !bytes.Equal(sf.Data, f.data) {
			report("convergence", "%q: server holds %d bytes (hash %x), client committed %d bytes (hash %x)",
				name, len(sf.Data), protocol.Sum(sf.Data), len(f.data), protocol.Sum(f.data))
		}
		if sf.Version < f.version {
			report("versions", "%q: server version %d behind last acknowledged commit %d",
				name, sf.Version, f.version)
		}
		if sf.History > 0 && sf.History < f.versions {
			report("versions", "%q: server stored %d versions, client committed %d",
				name, sf.History, f.versions)
		}
	}

	if !w.zero() {
		if !t.Compressed && t.freshBytes > 0 && w.ClientSent < t.freshBytes {
			report("tue-floor", "client sent %d bytes for %d bytes of fresh uncompressed content (TUE %.3f < 1)",
				w.ClientSent, t.freshBytes, float64(w.ClientSent)/float64(t.freshBytes))
		}
		if w.ServerReceived > w.ClientSent {
			report("wire-balance", "server received %d bytes but the client only sent %d",
				w.ServerReceived, w.ClientSent)
		}
		if lost := w.ClientSent - w.ServerReceived; w.MaxLost >= 0 && lost > w.MaxLost {
			report("wire-balance", "%d client bytes unaccounted for (sent %d, received %d, allowed loss %d)",
				lost, w.ClientSent, w.ServerReceived, w.MaxLost)
		}
	}
	return out
}

// CheckStored verifies one acknowledged upload against what the server
// stores for name right after the acknowledgement: exactly the bytes
// the client sent. A delta applied to any basis but the one it was cut
// against cannot produce them.
func CheckStored(name string, acked []byte, stored ServerFile) []Violation {
	if stored.Deleted || !bytes.Equal(stored.Data, acked) {
		return []Violation{{"stored", fmt.Sprintf("%q: acknowledged %d bytes (hash %x), the server stores %d bytes (hash %x, deleted=%v)",
			name, len(acked), protocol.Sum(acked), len(stored.Data), protocol.Sum(stored.Data), stored.Deleted)}}
	}
	return nil
}

// Listed is one entry of a client's remote listing: what it was told a
// file is, without the content.
type Listed struct {
	ID      uint64
	Size    int64
	Hash    protocol.Fingerprint
	Version uint64
	Deleted bool
}

// CheckListing verifies a client's listing against the server snapshot
// taken with it: one entry per server file, fake-deleted ones included,
// each naming the file's identity, size, content hash, version and
// deletion flag — and nothing the server does not hold.
func CheckListing(listed map[string]Listed, server map[string]ServerFile) []Violation {
	var out []Violation
	names := make([]string, 0, len(server))
	for name := range server {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := server[name]
		want := Listed{f.ID, int64(len(f.Data)), protocol.Sum(f.Data), f.Version, f.Deleted}
		if got, ok := listed[name]; !ok || got != want {
			out = append(out, Violation{"listing", fmt.Sprintf("%q: listed %+v (present %v), the server holds %+v", name, got, ok, want)})
		}
	}
	for name := range listed {
		if _, ok := server[name]; !ok {
			out = append(out, Violation{"listing", fmt.Sprintf("%q: listed, but the server holds no such file", name)})
		}
	}
	return out
}

// CheckRecovery verifies the crash-recovery contract of a durable
// store: after a crash at ANY byte of the state log, reopening must
// reconstruct exactly the state as of the last acknowledged operation
// — per-file content (hash-equal), version, deletion flag, history, and
// file identity all unchanged — with nothing resurrected and nothing
// invented. acked is the snapshot taken after the last operation the
// client saw acknowledged before the crash; recovered is the reopened
// store's snapshot. A mutation that was in flight when the crash hit
// was never acknowledged, so recovery must neither surface it as a new
// name nor as an advanced version — unless the caller counts it in
// acked, where a torn group commit carried a file in flight whole (a
// bundle's first entries; a commit whose Ack a cut lost).
func CheckRecovery(acked, recovered map[string]ServerFile) []Violation {
	var out []Violation
	report := func(format string, args ...any) {
		out = append(out, Violation{Invariant: "recovery", Detail: fmt.Sprintf(format, args...)})
	}

	names := make([]string, 0, len(acked))
	for name := range acked {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := acked[name]
		r, ok := recovered[name]
		if !ok {
			report("%q: acknowledged at version %d but lost in recovery", name, a.Version)
			continue
		}
		if !bytes.Equal(a.Data, r.Data) {
			report("%q: recovered %d bytes (hash %x), acknowledged %d bytes (hash %x)",
				name, len(r.Data), protocol.Sum(r.Data), len(a.Data), protocol.Sum(a.Data))
		}
		if r.Version != a.Version {
			report("%q: recovered at version %d, acknowledged %d", name, r.Version, a.Version)
		}
		if r.Deleted != a.Deleted {
			report("%q: recovered deleted=%v, acknowledged deleted=%v", name, r.Deleted, a.Deleted)
		}
		if a.History > 0 && r.History != a.History {
			report("%q: recovered %d stored versions, acknowledged %d", name, r.History, a.History)
		}
		if a.ID != 0 && r.ID != a.ID {
			report("%q: file identity changed across recovery: %d became %d", name, a.ID, r.ID)
		}
	}
	for name, r := range recovered {
		if _, ok := acked[name]; !ok {
			report("%q: recovery invented a file never acknowledged (v%d, %d bytes)",
				name, r.Version, len(r.Data))
		}
	}
	return out
}

// CheckLedger verifies the traffic-attribution ledger's core accounting
// contract: the sum over every cause equals the observed total wire
// byte count exactly, and no cause ever went negative. It is transport
// agnostic — callers pass whichever wire total their transport can
// measure exactly (both directions on net.Pipe, the fault scheduler's
// written count, a capture's TotalBytes, ...).
func CheckLedger(total int64, snap ledger.Snapshot) []Violation {
	var out []Violation
	for _, c := range ledger.Causes() {
		if n := snap.Get(c); n < 0 {
			out = append(out, Violation{"ledger-balance",
				fmt.Sprintf("cause %s is negative: %d", c, n)})
		}
	}
	if got := snap.Total(); got != total {
		out = append(out, Violation{"ledger-balance",
			fmt.Sprintf("causes sum to %d bytes but the wire carried %d (delta %+d)",
				got, total, got-total)})
	}
	return out
}
