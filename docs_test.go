package cloudsync_test

// Documentation gates: every Go package carries a package-level doc
// comment, every relative link in the Markdown tree resolves, every
// Makefile target is documented in the README, the README's tool and
// example tables list exactly cmd/* and examples/*, and the metric and
// span catalogue of docs/OBSERVABILITY.md names exactly what the live
// path registers and emits. These run in the ordinary test suite (and as
// CI's docs step) so the docs cannot drift silently the way they did
// before docs/ARCHITECTURE.md existed.

import (
	"bytes"
	"go/parser"
	"go/token"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
	"cloudsync/internal/syncnet"
)

// goPackageDirs returns every directory in the repository that holds
// non-test Go files, relative to the repo root (the directory of this
// test).
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	dirs := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(dirs))
	for d := range dirs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// TestPackageDocs fails on any package without a package-level doc
// comment — the contract docs/ARCHITECTURE.md's package map relies on.
func TestPackageDocs(t *testing.T) {
	for _, dir := range goPackageDirs(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package-level doc comment", name, dir)
			}
		}
	}
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks resolves every relative link in the Markdown tree
// (repo root + docs/) against the filesystem. Files that quote
// external material verbatim (paper abstracts, exemplar snippets from
// other repositories) carry links into trees we do not vendor and are
// skipped.
func TestDocLinks(t *testing.T) {
	quoted := map[string]bool{
		"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true, "ISSUE.md": true,
	}
	var files []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m {
			if !quoted[f] {
				files = append(files, f)
			}
		}
	}
	if len(files) < 5 {
		t.Fatalf("only %d markdown files found; glob broken?", len(files))
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", file, m[1], err)
			}
		}
	}
}

// TestMakefileTargetsDocumented: every target declared in the Makefile
// must be mentioned as `make <target>` in README.md, so the README's
// target table cannot rot.
func TestMakefileTargetsDocumented(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	targetLine := regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	targets := 0
	for _, m := range targetLine.FindAllStringSubmatch(string(mk), -1) {
		targets++
		if !strings.Contains(string(readme), "make "+m[1]) {
			t.Errorf("Makefile target %q is not documented in README.md (expected `make %s`)", m[1], m[1])
		}
	}
	if targets < 5 {
		t.Fatalf("only %d Makefile targets parsed; regexp broken?", targets)
	}
}

// TestCommandsDocumented: the rows of README.md's "Command-line tools"
// table must name exactly the cmd/* directories, and the rows of its
// runnable-examples table exactly the examples/* directories, in both
// directions — so a deleted tool cannot stay listed and a new one
// cannot go unlisted.
func TestCommandsDocumented(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ intro, dir string }{
		{"Command-line tools:", "cmd"},
		{"Runnable examples live in `examples/`:", "examples"},
	} {
		_, rest, ok := strings.Cut(string(raw), "\n"+c.intro+"\n")
		if !ok {
			t.Fatalf("README.md has no %q table", c.intro)
		}
		row := regexp.MustCompile("^\\| `(" + c.dir + "/[^`]+)` \\|")
		listed := make(map[string]bool)
		for _, line := range strings.Split(strings.TrimLeft(rest, "\n"), "\n") {
			if !strings.HasPrefix(line, "|") {
				break
			}
			if m := row.FindStringSubmatch(line); m != nil {
				listed[m[1]] = true
			}
		}
		entries, err := os.ReadDir(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		present := make(map[string]bool)
		for _, e := range entries {
			if e.IsDir() {
				present[c.dir+"/"+e.Name()] = true
			}
		}
		for d := range present {
			if !listed[d] {
				t.Errorf("%s is not listed in README.md's %q table", d, c.intro)
			}
		}
		for d := range listed {
			if !present[d] {
				t.Errorf("README.md's %q table lists %s, which does not exist", c.intro, d)
			}
		}
		if len(present) < 2 {
			t.Fatalf("only %d %s/* directories found; walk broken?", len(present), c.dir)
		}
	}
}

var (
	docToken     = regexp.MustCompile("`([^`]+)`")
	metricName   = regexp.MustCompile(`^(syncd|syncnet)_[a-z0-9_]+$`)
	liveSpanName = regexp.MustCompile(`^(client|server)\.[a-z_.-]+$`)
	promTypeLine = regexp.MustCompile(`(?m)^# TYPE (\S+) `)
)

// tableTokens returns the back-ticked tokens matching want in the
// Markdown table rows of doc.
func tableTokens(doc string, want *regexp.Regexp) map[string]bool {
	out := make(map[string]bool)
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range docToken.FindAllStringSubmatch(line, -1) {
			if want.MatchString(m[1]) {
				out[m[1]] = true
			}
		}
	}
	return out
}

// section returns the part of doc under the given heading line, up to
// the next heading.
func section(t *testing.T, doc, heading string) string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		t.Fatalf("docs/OBSERVABILITY.md has no %q section", heading)
	}
	body, _, _ := strings.Cut(rest, "\n#")
	return body
}

// diffSets reports, as test errors, what the code has that the
// catalogue lacks and the reverse.
func diffSets(t *testing.T, what string, code, doc map[string]bool) {
	t.Helper()
	for name := range code {
		if !doc[name] {
			t.Errorf("%s %s is not in the docs/OBSERVABILITY.md catalogue", what, name)
		}
	}
	for name := range doc {
		if !code[name] {
			t.Errorf("docs/OBSERVABILITY.md catalogues %s %s, which the live path never produced", what, name)
		}
	}
	if len(code) < 5 {
		t.Fatalf("only %d %ss observed; harness broken?", len(code), what)
	}
}

// TestObservabilityCatalogue drives every live upload shape, a resumed
// retry, a second device's signature-fetching modify, and
// List/Download/Delete through a durable server with a
// registry and a tracer on both ends, then requires the syncd_* and
// syncnet_* metric names registered, and the client.* and server.* span
// names emitted, to equal the ones the tables of docs/OBSERVABILITY.md
// name — in both directions.
func TestObservabilityCatalogue(t *testing.T) {
	reg := obs.NewRegistry()
	srvTr, cliTr := obs.NewTracer(), obs.NewTracer()
	srv, err := syncnet.OpenServer(syncnet.ServerConfig{StateDir: t.TempDir(), Metrics: reg, Tracer: srvTr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	// One cut, inside the first large upload, so the retry asks to resume.
	faults := syncnet.NewFaultScheduler(syncnet.FaultPlan{Seed: 1, MeanDropBytes: 160 << 10, MaxDrops: 1})
	faults.SetMetrics(reg)
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		return faults.Wrap(conn), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := syncnet.NewClient(conn, "alice", "docs",
		syncnet.WithTracer(cliTr), syncnet.WithClientMetrics(reg),
		syncnet.WithDialer(dial), syncnet.WithRetry(syncnet.RetryPolicy{MaxAttempts: 3}))
	if err != nil {
		t.Fatal(err)
	}
	big := content.Random(512<<10, 1).Bytes()
	edited := append([]byte(nil), big...)
	edited[100<<10] ^= 0xFF
	small := big[:1024]
	must := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	st, err := c.Upload("big", big) // full upload, cut and resumed
	must("full upload", err)
	if st.Attempts < 2 {
		t.Fatalf("full upload took %d attempt(s); the fault never fired", st.Attempts)
	}
	_, err = c.Upload("big", edited) // delta sync on the signature the upload left
	must("delta upload", err)
	// A second device holds no signature of big: its modify asks for one.
	other, err := syncnet.Dial("tcp", l.Addr().String(), "alice", "docs-2")
	must("second device", err)
	_, err = other.List()
	must("second device list", err)
	edited = append([]byte(nil), edited...)
	edited[300<<10] ^= 0xFF
	_, err = other.Upload("big", edited) // signature request, then delta
	must("second device delta upload", err)
	must("second device close", other.Close())
	_, err = c.Upload("small", small) // inline
	must("inline upload", err)
	_, err = c.UploadBundle([]syncnet.FileUpload{{Name: "b0", Data: big[:2048]}, {Name: "b1", Data: big[2048:4096]}})
	must("bundle", err)
	_, err = c.List()
	must("list", err)
	got, err := c.Download("big")
	must("download", err)
	if !bytes.Equal(got, edited) {
		t.Fatal("downloaded content differs from what was uploaded")
	}
	must("delete", c.Delete("small"))
	must("client close", c.Close())
	must("server close", srv.Close())
	// The metered client's one delta sync, timed once.
	if n := reg.Histogram("syncnet_client_delta_compute_us", "").Count(); n != 1 {
		t.Fatalf("syncnet_client_delta_compute_us counted %d delta computes, want 1", n)
	}
	// The server hashed what it committed from transferred bytes or a
	// delta: the resumed upload, both deltas, the inline file and the
	// two bundled ones.
	if n := reg.Histogram("syncd_content_hash_us", "").Count(); n != 6 {
		t.Fatalf("syncd_content_hash_us counted %d content hashes, want 6", n)
	}
	// Each delta flipped one byte: it built that byte's 16 KiB leaf and
	// shared the file's other 31.
	if n := reg.Counter("syncd_delta_built_bytes_total", "").Value(); n != 2*protocol.LeafSize {
		t.Fatalf("syncd_delta_built_bytes_total %d after two one-byte deltas, want %d", n, 2*protocol.LeafSize)
	}

	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	var prom bytes.Buffer
	must("metrics export", reg.WritePrometheus(&prom))
	metrics := make(map[string]bool)
	for _, m := range promTypeLine.FindAllStringSubmatch(prom.String(), -1) {
		metrics[m[1]] = true
	}
	diffSets(t, "metric", metrics, tableTokens(doc, metricName))

	spans := make(map[string]bool)
	for _, tr := range []*obs.Tracer{cliTr, srvTr} {
		for _, sp := range tr.Spans() {
			spans[sp.Name] = true
		}
	}
	documented := tableTokens(section(t, doc, "### Live client"), liveSpanName)
	for name := range tableTokens(section(t, doc, "### Live server"), liveSpanName) {
		documented[name] = true
	}
	diffSets(t, "span", spans, documented)
}
