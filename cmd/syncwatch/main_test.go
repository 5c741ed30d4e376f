package main

import (
	"bytes"
	"flag"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/syncnet"
)

// TestDryRunGolden pins `syncwatch -dry-run` output byte for byte: a
// committed fixture tree and baseline plan to a stable text table. The
// fixture covers all four action kinds — a file modified since the
// baseline, a new file, a baseline entry deleted from disk, and an
// unchanged file.
func TestDryRunGolden(t *testing.T) {
	var got bytes.Buffer
	err := runDryRun(options{
		dir:      "testdata/tree",
		baseline: filepath.Join("testdata", "baseline.json"),
	}, &got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "dryrun.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("dry-run output drifted from testdata/dryrun.golden:\n got:\n%s\nwant:\n%s",
			got.String(), want)
	}
}

// TestDryRunDeterministic: two runs over the same tree must agree —
// the golden is only meaningful if the output carries no ambient
// state (mtimes, map order, wall clock).
func TestDryRunDeterministic(t *testing.T) {
	run := func() string {
		var b bytes.Buffer
		if err := runDryRun(options{dir: "testdata/tree", baseline: "testdata/baseline.json"}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("dry-run not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestReplayCommand smoke-tests `-replay freqmod -explain`: the
// comparison must report savings and the explain tables must balance.
func TestReplayCommand(t *testing.T) {
	var out bytes.Buffer
	err := runReplay(options{
		replay: "freqmod", explain: true,
		deferMode: "asd", epsilon: 200 * time.Millisecond, tmax: 5 * time.Second,
		files: 1, edits: 4, editGap: 500 * time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sync points", "client wire bytes", "TUE", "saves", "traffic by cause"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("replay output missing %q:\n%s", want, out.String())
		}
	}
}

// TestReplayRefusesForbiddenPolicies runs `-replay freqmod` through the
// real flag set: parameters the paper forbids (deferpolicy's Validate)
// are refused with a message naming the mode, and every kind's default
// flags still replay, its name heading the comparison column.
func TestReplayRefusesForbiddenPolicies(t *testing.T) {
	for _, c := range []struct {
		args    string
		refused bool
		column  string // the policy column's heading when replayed
	}{
		{"-defer asd -epsilon 0", true, ""},
		{"-defer asd -epsilon 5s", true, ""},
		{"-defer asd -tmax 0", true, ""},
		{"-defer fixed -defer-fixed -1s", true, ""},
		{"-defer uds -uds-threshold 0", true, ""},
		{"-defer uds -uds-delay 0", true, ""},
		{"-defer none", false, "asd"}, // no-defer against itself falls back to asd
		{"-defer fixed", false, "fixed"},
		{"-defer asd", false, "asd"},
		{"-defer uds", false, "uds"},
	} {
		t.Run(c.args, func(t *testing.T) {
			fs := flag.NewFlagSet("syncwatch", flag.ContinueOnError)
			var o options
			register(fs, &o)
			if err := fs.Parse(append([]string{"-replay", "freqmod"}, strings.Fields(c.args)...)); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err := runReplay(o, &out)
			switch {
			case c.refused && err == nil:
				t.Fatalf("replayed with a forbidden policy:\n%s", out.String())
			case c.refused && !strings.Contains(err.Error(), "-defer "+o.deferMode):
				t.Fatalf("refusal %q does not name the mode", err)
			case !c.refused && err != nil:
				t.Fatal(err)
			case !c.refused && !regexp.MustCompile(`no-defer +`+c.column+`\n`).MatchString(out.String()):
				t.Fatalf("comparison column is not headed %q:\n%s", c.column, out.String())
			}
		})
	}
}

// syncGoroutines returns stacks of goroutines currently inside sync
// code — the daemon loop, executor workers, server handlers.
func syncGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if (strings.Contains(g, "cloudsync/internal/syncnet") ||
			strings.Contains(g, "cloudsync/internal/watchsync") ||
			strings.Contains(g, "runDaemon")) &&
			!strings.Contains(g, "runtime.Stack") &&
			!strings.Contains(g, "testing.tRunner") {
			out = append(out, g)
		}
	}
	return out
}

// TestDaemonSmoke runs the real daemon loop against an in-process
// server over TCP: create files, wait for convergence, modify, delete,
// wait again, shut down, and verify no goroutine survives.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke test sleeps on real time")
	}
	srv := syncnet.NewServer(syncnet.ServerConfig{Compression: comp.High})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("hello.txt", "hello watch mode")
	writeFile("docs/spec.md", "# spec\ncontent")

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runDaemon(options{
			dir:       dir,
			addr:      l.Addr().String(),
			user:      "smoke",
			device:    "smoketest",
			interval:  20 * time.Millisecond,
			debounce:  10 * time.Millisecond,
			baseline:  filepath.Join(dir, ".syncwatch", "baseline.json"),
			workers:   2,
			compress:  true,
			deferMode: "none",
		}, stop)
	}()

	waitFor := func(desc string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; server snapshot: %v", desc, srv.Snapshot("smoke"))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	content := func(name string) string {
		f, ok := srv.Snapshot("smoke")[name]
		if !ok || f.Deleted {
			return ""
		}
		return string(f.Data)
	}

	waitFor("initial sync", func() bool {
		return content("hello.txt") == "hello watch mode" && content("docs/spec.md") == "# spec\ncontent"
	})
	writeFile("hello.txt", "hello watch mode, edited")
	waitFor("modify sync", func() bool { return content("hello.txt") == "hello watch mode, edited" })
	if err := os.Remove(filepath.Join(dir, "docs", "spec.md")); err != nil {
		t.Fatal(err)
	}
	waitFor("delete sync", func() bool {
		f, ok := srv.Snapshot("smoke")["docs/spec.md"]
		return ok && f.Deleted
	})

	// The baseline must have been persisted for the next generation.
	if _, err := os.Stat(filepath.Join(dir, ".syncwatch", "baseline.json")); err != nil {
		t.Fatalf("baseline not persisted: %v", err)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("daemon exited with %v", err)
	}
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaked := syncGoroutines()
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
