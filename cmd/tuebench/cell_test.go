package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudsync/internal/core"
)

// TestCellTrace drives `tuebench -cell … -trace`: the dump holds the
// simulated sync engine's spans on the virtual clock, and the cell's
// core.cell span carries the traffic the printed row totals.
func TestCellTrace(t *testing.T) {
	defer core.ResetContentSeeds()
	const spec = "modify,dropbox,pc,1048576"
	dir := t.TempDir()
	run := func(name string) (string, []byte) {
		t.Helper()
		core.ResetContentSeeds()
		path := filepath.Join(dir, name)
		var out bytes.Buffer
		if err := runCell(&out, spec, path); err != nil {
			t.Fatal(err)
		}
		dump, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), dump
	}
	out, dump := run("a.json")
	// Virtual time, not wall time: a second run writes the same bytes.
	if _, again := run("b.json"); !bytes.Equal(dump, again) {
		t.Fatal("two runs of one cell wrote different traces; spans are not on the virtual clock")
	}

	// The row's total column, located by its header.
	lines := strings.Split(out, "\n")
	col := strings.Index(lines[0], " total ") + 1
	if col == 0 || len(lines) < 3 || len(lines[2]) <= col {
		t.Fatalf("no total column in\n%s", out)
	}
	total := strings.Fields(lines[2][col:])[0]

	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(dump, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name]++
		if ev.Name == "core.cell" && ev.Args["traffic"] != total {
			t.Errorf("core.cell traffic %s, row total %s", ev.Args["traffic"], total)
		}
	}
	for _, name := range []string{"core.cell", "client.sync_round", "client.session", "net.session"} {
		if seen[name] == 0 {
			t.Errorf("trace has no %s span (spans: %v)", name, seen)
		}
	}
	if n, err := strconv.ParseInt(total, 10, 64); err != nil || n <= 0 {
		t.Fatalf("row total %q", total)
	}
	// The text tree is printed under the row.
	if !strings.Contains(out, "client.sync_round") {
		t.Errorf("no span tree under the row:\n%s", out)
	}
}

func TestCellSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"modify,dropbox,pc", "modify,dropbox,pc,1,mn", "modify,nobox,pc,1",
		"modify,dropbox,tv,1", "modify,dropbox,pc,x", "rename,dropbox,pc,1",
		"create,dropbox,pc,0", "modify,dropbox,pc,1.5", "batch,dropbox,pc,-1", "append,dropbox,pc,0",
	} {
		if err := runCell(&bytes.Buffer{}, spec, ""); err == nil {
			t.Errorf("-cell %q accepted", spec)
		}
	}
}
