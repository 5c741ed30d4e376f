package invariant

import (
	"crypto/md5"
	"strings"
	"testing"
)

func content(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// hasViolation reports whether any violation of the given invariant
// mentions substr.
func hasViolation(vs []Violation, invariant, substr string) bool {
	for _, v := range vs {
		if v.Invariant == invariant && strings.Contains(v.Detail, substr) {
			return true
		}
	}
	return false
}

func TestCheckPassesOnConvergedState(t *testing.T) {
	tr := NewTracker()
	tr.RecordUpload("a", content('a', 100), 1)
	tr.RecordUpload("a", content('b', 120), 2)
	tr.RecordUpload("b", content('c', 50), 1)
	tr.RecordDownload("a", content('b', 120))
	tr.RecordDelete("b")

	server := map[string]ServerFile{
		"a": {Data: content('b', 120), Version: 2, History: 2},
		"b": {Data: content('c', 50), Version: 1, Deleted: true, History: 1},
	}
	w := Wire{ClientSent: 400, ServerReceived: 400, MaxLost: 0}
	if vs := tr.Check(server, w); len(vs) != 0 {
		t.Fatalf("converged state reported violations: %v", vs)
	}
	if got := tr.FreshBytes(); got != 270 {
		t.Fatalf("FreshBytes = %d, want 270", got)
	}
}

func TestCheckFlagsContentDivergence(t *testing.T) {
	tr := NewTracker()
	tr.RecordUpload("a", content('a', 100), 1)
	server := map[string]ServerFile{"a": {Data: content('x', 100), Version: 1}}
	vs := tr.Check(server, Wire{})
	if !hasViolation(vs, "convergence", `"a"`) {
		t.Fatalf("divergent content not flagged: %v", vs)
	}
}

func TestCheckFlagsMissingAndResurrectedFiles(t *testing.T) {
	tr := NewTracker()
	tr.RecordUpload("gone", content('a', 10), 1)
	tr.RecordUpload("zombie", content('b', 10), 1)
	tr.RecordDelete("zombie")
	server := map[string]ServerFile{
		"zombie": {Data: content('b', 10), Version: 1}, // still live
	}
	vs := tr.Check(server, Wire{})
	if !hasViolation(vs, "convergence", `"gone"`) {
		t.Fatalf("missing file not flagged: %v", vs)
	}
	if !hasViolation(vs, "convergence", `"zombie"`) {
		t.Fatalf("resurrected file not flagged: %v", vs)
	}
}

func TestCheckFlagsVersionProblems(t *testing.T) {
	tr := NewTracker()
	tr.RecordUpload("a", content('a', 10), 5)
	tr.RecordUpload("a", content('b', 10), 5) // not strictly increasing
	if vs := tr.Check(map[string]ServerFile{"a": {Data: content('b', 10), Version: 5}}, Wire{}); !hasViolation(vs, "versions", "not above previous") {
		t.Fatalf("stuck commit version not flagged: %v", vs)
	}

	tr = NewTracker()
	tr.RecordUpload("a", content('a', 10), 7)
	server := map[string]ServerFile{"a": {Data: content('a', 10), Version: 3}}
	if vs := tr.Check(server, Wire{}); !hasViolation(vs, "versions", "behind last acknowledged") {
		t.Fatalf("server version regression not flagged: %v", vs)
	}

	tr = NewTracker()
	tr.RecordUpload("a", content('a', 10), 1)
	tr.RecordUpload("a", content('b', 10), 2)
	server = map[string]ServerFile{"a": {Data: content('b', 10), Version: 2, History: 1}}
	if vs := tr.Check(server, Wire{}); !hasViolation(vs, "versions", "stored 1 versions") {
		t.Fatalf("shallow history not flagged: %v", vs)
	}
}

func TestRecordDownloadMismatch(t *testing.T) {
	tr := NewTracker()
	tr.RecordUpload("a", content('a', 10), 1)
	tr.RecordDownload("a", content('x', 10))
	tr.RecordDownload("ghost", content('y', 3))
	vs := tr.Check(map[string]ServerFile{"a": {Data: content('a', 10), Version: 1}}, Wire{})
	if !hasViolation(vs, "convergence", "downloaded") {
		t.Fatalf("download mismatch not flagged: %v", vs)
	}
	if !hasViolation(vs, "convergence", `"ghost"`) {
		t.Fatalf("download of nonexistent file not flagged: %v", vs)
	}
}

func TestCheckFlagsTUEFloor(t *testing.T) {
	tr := NewTracker()
	tr.RecordUpload("a", content('a', 1000), 1)
	server := map[string]ServerFile{"a": {Data: content('a', 1000), Version: 1}}
	vs := tr.Check(server, Wire{ClientSent: 500, ServerReceived: 500, MaxLost: 0})
	if !hasViolation(vs, "tue-floor", "TUE") {
		t.Fatalf("TUE < 1 not flagged: %v", vs)
	}

	// Compression legitimately shrinks traffic below the update size.
	tr.Compressed = true
	if vs := tr.Check(server, Wire{ClientSent: 500, ServerReceived: 500, MaxLost: 0}); len(vs) != 0 {
		t.Fatalf("compressed config still flagged the floor: %v", vs)
	}

	// Re-uploading already-seen content is not fresh; dedup may skip it.
	// Nor is an edit of known content, which a delta sync moves in less.
	tr = NewTracker()
	tr.RecordUpload("a", content('a', 1000), 1)
	tr.RecordUpload("b", content('a', 1000), 1) // same bytes, other name
	tr.RecordEdit("a", append(content('a', 999), 'b'), 2)
	if got := tr.FreshBytes(); got != 1000 {
		t.Fatalf("FreshBytes = %d, want 1000 (duplicate content and edits must not count)", got)
	}
	// An edit is still a commit: versions and convergence apply.
	tr.RecordEdit("a", content('c', 10), 2)
	vs = tr.Check(map[string]ServerFile{"a": {Data: content('x', 10), Version: 2}}, Wire{})
	if !hasViolation(vs, "versions", "not above previous") || !hasViolation(vs, "convergence", `"a"`) {
		t.Fatalf("stuck or divergent edit not flagged: %v", vs)
	}
}

func TestCheckFlagsWireImbalance(t *testing.T) {
	tr := NewTracker()
	server := map[string]ServerFile{}

	vs := tr.Check(server, Wire{ClientSent: 100, ServerReceived: 200, MaxLost: -1})
	if !hasViolation(vs, "wire-balance", "only sent") {
		t.Fatalf("server receiving phantom bytes not flagged: %v", vs)
	}

	vs = tr.Check(server, Wire{ClientSent: 300, ServerReceived: 200, MaxLost: 0})
	if !hasViolation(vs, "wire-balance", "unaccounted") {
		t.Fatalf("lost bytes under exact balance not flagged: %v", vs)
	}

	// Sign-check mode tolerates kernel-buffered loss.
	if vs := tr.Check(server, Wire{ClientSent: 300, ServerReceived: 200, MaxLost: -1}); len(vs) != 0 {
		t.Fatalf("sign-check mode flagged buffered loss: %v", vs)
	}

	// The zero Wire disables wire checks entirely.
	tr.RecordUpload("a", content('a', 1000), 1)
	if vs := tr.Check(map[string]ServerFile{"a": {Data: content('a', 1000), Version: 1}}, (Wire{})); len(vs) != 0 {
		t.Fatalf("zero wire value ran wire checks: %v", vs)
	}
}

func TestCheckStoredFlags(t *testing.T) {
	acked := content('a', 100)
	if vs := CheckStored("a", acked, ServerFile{Data: content('a', 100), Version: 3}); len(vs) != 0 {
		t.Fatalf("stored bytes equal to the acknowledged ones flagged: %v", vs)
	}
	for label, stored := range map[string]ServerFile{
		"spliced":  {Data: append(content('a', 99), 'x'), Version: 3},
		"short":    {Data: content('a', 50), Version: 3},
		"deleted":  {Data: content('a', 100), Version: 3, Deleted: true},
		"missing":  {},
		"oversize": {Data: content('a', 101), Version: 3},
	} {
		if vs := CheckStored("a", acked, stored); !hasViolation(vs, "stored", `"a"`) {
			t.Errorf("%s: stored bytes not flagged: %v", label, vs)
		}
	}
}

func TestCheckListingFlags(t *testing.T) {
	a := content('a', 10)
	listed := map[string]Listed{"a": {1, 10, md5.Sum(a), 2, false}, "b": {2, 10, md5.Sum(a), 1, true}}
	for label, server := range map[string]map[string]ServerFile{
		"":               {"a": {ID: 1, Data: a, Version: 2}, "b": {ID: 2, Data: a, Version: 1, Deleted: true}},
		"newer version":  {"a": {ID: 1, Data: a, Version: 3}, "b": {ID: 2, Data: a, Version: 1, Deleted: true}},
		"other content":  {"a": {ID: 1, Data: content('x', 10), Version: 2}, "b": {ID: 2, Data: a, Version: 1, Deleted: true}},
		"other size":     {"a": {ID: 1, Data: content('a', 11), Version: 2}, "b": {ID: 2, Data: a, Version: 1, Deleted: true}},
		"other identity": {"a": {ID: 9, Data: a, Version: 2}, "b": {ID: 2, Data: a, Version: 1, Deleted: true}},
		"resurrected":    {"a": {ID: 1, Data: a, Version: 2}, "b": {ID: 2, Data: a, Version: 1}},
		"unlisted file":  {"a": {ID: 1, Data: a, Version: 2}, "b": {ID: 2, Data: a, Version: 1, Deleted: true}, "c": {ID: 3}},
		"listed ghost":   {"a": {ID: 1, Data: a, Version: 2}},
	} {
		vs := CheckListing(listed, server)
		if label == "" && len(vs) > 0 || label != "" && !hasViolation(vs, "listing", `"`) {
			t.Errorf("%q: %v", label, vs)
		}
	}
}
