package watchsync

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudsync/internal/planner"
	"cloudsync/internal/protocol"
)

func testBaseline() map[string]planner.FileMeta {
	return map[string]planner.FileMeta{
		"notes.txt": {Size: 11, Hash: protocol.Sum([]byte("hello world")), Version: 3},
		"deep/a":    {Size: 0, Hash: protocol.Sum(nil), Version: 1},
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	want := testBaseline()
	if err := SaveBaseline(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Fatalf("%q loaded as %+v, want %+v", name, g, w)
		}
	}
}

func TestBaselineMissingIsFreshStart(t *testing.T) {
	got, err := LoadBaseline(filepath.Join(t.TempDir(), "nope", "baseline.json"))
	if err != nil {
		t.Fatalf("missing baseline must be a fresh start, got %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh start has %d entries", len(got))
	}
}

// TestBaselineTruncated: a torn write (no atomic rename, e.g. a
// hand-edited file or a foreign tool) must surface as an error at every
// cut point, never as a silently partial baseline.
func TestBaselineTruncated(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "baseline.json")
	if err := SaveBaseline(full, testBaseline()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "torn.json")
	for cut := 1; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadBaseline(path)
		if err == nil && len(got) != len(testBaseline()) {
			t.Fatalf("cut %d: truncated baseline silently loaded %d entries", cut, len(got))
		}
	}
}

// TestBaselineCorrupt covers the decode-time rejections: invalid JSON,
// a format version from the future, and entries whose hashes do not
// decode to a 16-byte hash.
func TestBaselineCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"format": 3, "files"`,
		"wrong type":    `{"format": 3, "files": {"a": "nope"}}`,
		"future format": `{"format": 99, "files": {}}`,
		"bad hex hash":  `{"format": 3, "files": {"a": {"size": 1, "hash": "zz", "version": 1}}}`,
		"short hash":    `{"format": 3, "files": {"a": {"size": 1, "hash": "abcd", "version": 1}}}`,
	}
	for label, body := range cases {
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBaseline(path); err == nil {
			t.Errorf("%s: corrupt baseline loaded without error", label)
		}
	}
}

// TestBaselineRefusesOldFormats checks that a baseline written under an
// earlier file identity is refused for its format, whole: format 1 held
// MD5s, format 2 flat SHA-256 prefixes. None of their hashes can match
// a protocol.Sum, so planning from them would upload every file again.
func TestBaselineRefusesOldFormats(t *testing.T) {
	for format, body := range map[int]string{
		1: `{"format": 1, "files": {"a": {"size": 3, "md5": "900150983cd24fb0d6963f7d28e17f72", "version": 1}}}`,
		2: `{"format": 2, "files": {"a": {"size": 3, "hash": "ba7816bf8f01cfea414140de5dae2223", "version": 1}}}`,
	} {
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadBaseline(path)
		if want := fmt.Sprintf("has format %d, want 3", format); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("LoadBaseline(format %d) = %v, %v; want the format error", format, got, err)
		}
	}
}

// TestBaselineMidRenameCrash simulates kill -9 between the temp-file
// fsync and the rename: the temp file exists, the target still holds
// the previous baseline. Recovery must load the old baseline untouched,
// and the next successful save must supersede it while the stale temp
// file stays inert (ignored, never resurrected as state).
func TestBaselineMidRenameCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	old := map[string]planner.FileMeta{
		"stable.txt": {Size: 6, Hash: protocol.Sum([]byte("stable")), Version: 1},
	}
	if err := SaveBaseline(path, old); err != nil {
		t.Fatal(err)
	}

	// The crash artifact: a fully written, fsynced temp file that never
	// got renamed — exactly what SaveBaseline leaves at that window.
	tmp, err := os.CreateTemp(dir, ".baseline-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte(`{"format": 3, "files": {"doomed.txt": {"size": 1, "hash": "00000000000000000000000000000000", "version": 9}}}`)); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["stable.txt"] != old["stable.txt"] {
		t.Fatalf("recovery loaded %+v, want the pre-crash baseline", got)
	}

	next := testBaseline()
	if err := SaveBaseline(path, next); err != nil {
		t.Fatal(err)
	}
	got, err = LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(next) {
		t.Fatalf("post-crash save loaded %d entries, want %d", len(got), len(next))
	}
	for name := range got {
		if name == "doomed.txt" {
			t.Fatal("stale temp file's content leaked into the baseline")
		}
	}
}

// TestBaselineSaveIntoMissingDir: SaveBaseline does not create parent
// directories (the daemon does, once, at startup); it must fail cleanly
// and leave no droppings.
func TestBaselineSaveIntoMissingDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nope", "baseline.json")
	if err := SaveBaseline(path, testBaseline()); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed save left temp dropping %s", e.Name())
		}
	}
}
