package syncnet

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/protocol"
)

// dumpState renders the server's whole durable state as text, in a
// fixed order: every file, byID, the content store's keys and sizes,
// the dedup index, nextID and syncd_bytes_stored. Two servers hold the
// same state exactly when their dumps are equal; the change feed, which
// is lifetime state, is left out.
func dumpState(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	users := make([]string, 0, len(s.users))
	for u := range s.users {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		files := s.users[u].files
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			f := files[n]
			fmt.Fprintf(&b, "file %s/%s id=%d version=%d deleted=%v history=%d hash=%x data=%d:%x\n",
				u, f.name, f.id, f.version, f.deleted, f.history, f.hash, len(f.data), protocol.Sum(f.data))
		}
	}
	keys := make([]fileKey, 0, len(s.byID))
	for k := range s.byID {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b fileKey) int {
		return cmp.Or(strings.Compare(a.user, b.user), cmp.Compare(a.id, b.id))
	})
	for _, k := range keys {
		f := s.byID[k]
		where := "detached"
		if s.users[k.user] != nil && s.users[k.user].files[f.name] == f {
			where = f.name
		}
		fmt.Fprintf(&b, "byID %s/%d -> %s\n", k.user, k.id, where)
	}
	hashes := make([]string, 0, len(s.byHash))
	for h, data := range s.byHash {
		hashes = append(hashes, fmt.Sprintf("content %x %d", h, len(data)))
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		fmt.Fprintln(&b, h)
	}
	for _, e := range s.index.Entries() {
		fmt.Fprintf(&b, "index %q %x %d\n", e.Scope, e.FP, e.Size)
	}
	fmt.Fprintf(&b, "nextID %d\nbytes_stored %d\n", s.nextID, s.om.bytesStored.Value())
	return b.String()
}

// checkIdentities requires every content in the store to be filed
// under its own protocol.Sum, and every leaf sum kept beside it to be
// its leaf's.
func checkIdentities(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for h, data := range s.byHash {
		if got := protocol.Sum(data); got != h {
			t.Fatalf("content of %d B filed under %x, its identity is %x", len(data), h, got)
		}
		if leaves, ok := s.leafSums[h]; ok && !slices.Equal(leaves, leavesOf(data)) {
			t.Fatalf("content %x: kept leaf sums are not its leaves'", h)
		}
	}
	for h := range s.leafSums {
		if _, ok := s.byHash[h]; !ok {
			t.Fatalf("leaf sums kept for %x, which is not stored", h)
		}
	}
}

// sameDump fails the test at the first line two dumps differ.
func sameDump(t *testing.T, label, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s: state differs at line %d:\n got %q\nwant %q", label, i+1, gl, wl)
		}
	}
}

// writeFormatDir drives a fixed script through a durable server in dir
// and closes it: a snapshot generation (content, index and file
// records) and a log after it holding content and file records, from a
// full upload, an inline upload, a bundle, deltas, a cross-account copy,
// deletes and a recreate.
func writeFormatDir(t *testing.T, dir string) {
	t.Helper()
	srv, err := OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	alice, closeA := pipeClient(t, srv, "alice", "a", nil, WithBlockSize(512))
	bob, closeB := pipeClient(t, srv, "bob", "b", nil, WithBlockSize(512))
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	full := content.Random(3000, 1).Bytes()
	edit := func(b []byte, at int) []byte {
		b = bytes.Clone(b)
		copy(b[at:], "edited")
		return b
	}
	must(alice.Upload("full.bin", full))
	must(alice.Upload("inline.txt", []byte("rides in a one-entry bundle")))
	must(alice.UploadBundle([]FileUpload{{"b1", content.Text(200, 2).Bytes()}, {"b2", content.Text(300, 3).Bytes()}}))
	must(alice.Upload("full.bin", edit(full, 1000)))
	must(bob.Upload("same.bin", full))
	must(nil, alice.Delete("inline.txt"))
	must(nil, srv.CompactState())
	must(alice.Upload("after.bin", content.Random(2000, 4).Bytes()))
	must(alice.Upload("full.bin", edit(edit(full, 1000), 2500)))
	must(nil, alice.Delete("b1"))
	must(alice.Upload("inline.txt", []byte("recreated")))
	must(bob.Upload("same.bin", edit(full, 100)))
	closeA()
	closeB()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// formatDir was written by writeFormatDir on the code before the server
// applied its own records; formatDir+".dump" is its state.
const formatDir = "testdata/statedir"

// copyStateDir copies the snapshot and log of a committed state dir to a
// temporary one, which opening may repair and sweep.
func copyStateDir(tb testing.TB, src string) string {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join(src, "*-*.log"))
	if err != nil || len(names) != 2 {
		tb.Fatalf("%s holds %v, want one snapshot and one log (%v)", src, names, err)
	}
	dir := tb.TempDir()
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, filepath.Base(n)), b, 0o644)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// TestOpensParentStateDir pins the log format both ways: formatDir must
// open to the state in its dump, and the script that wrote it must,
// run now, write its snapshot and log byte for byte.
func TestOpensParentStateDir(t *testing.T) {
	want, err := os.ReadFile(formatDir + ".dump")
	if err != nil {
		t.Fatal(err)
	}
	sameDump(t, "opened "+formatDir, string(want), dumpState(reopenServer(t, copyStateDir(t, formatDir))))

	dir := t.TempDir()
	writeFormatDir(t, dir)
	names, _ := filepath.Glob(filepath.Join(formatDir, "*-*.log"))
	for _, n := range names {
		wantB, _ := os.ReadFile(n)
		gotB, err := os.ReadFile(filepath.Join(dir, filepath.Base(n)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, wantB) {
			t.Errorf("%s: written as %d bytes that differ from the %d in %s", filepath.Base(n), len(gotB), len(wantB), formatDir)
		}
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "*-*.log")); len(got) != len(names) {
		t.Errorf("script wrote %v, want the files of %s", got, formatDir)
	}
}

// TestReplayEqualsLive: seeded scripts of every kind of mutation —
// full, inline and bundled uploads, deltas, stale-basis deltas the
// server refuses, deletes, recreates, another account's copy of the
// same bytes, compactions at random points — leave a durable server
// whose reopened state equals its live state, with per-account and
// cross-account dedup.
func TestReplayEqualsLive(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for _, cross := range []bool{false, true} {
		var sum ServerStats
		for seed := range seeds {
			t.Run(fmt.Sprintf("cross=%v/seed=%d", cross, seed), func(t *testing.T) {
				st := replayScript(t, uint64(seed), cross)
				sum.InlineUploads += st.InlineUploads
				sum.Bundles += st.Bundles
				sum.DeltaSyncs += st.DeltaSyncs
				sum.CondDeltaConflicts += st.CondDeltaConflicts
				sum.Deletes += st.Deletes
				sum.DedupSkips += st.DedupSkips
			})
		}
		t.Logf("cross=%v, %d seeds: %d inline uploads, %d bundles, %d deltas, %d refused, %d deletes, %d dedup skips",
			cross, seeds, sum.InlineUploads, sum.Bundles, sum.DeltaSyncs, sum.CondDeltaConflicts, sum.Deletes, sum.DedupSkips)
		// Every kind of mutation the scripts aim at happened.
		if sum.InlineUploads == 0 || sum.Bundles <= sum.InlineUploads || sum.DeltaSyncs == 0 ||
			sum.CondDeltaConflicts == 0 || sum.Deletes == 0 || sum.DedupSkips == 0 {
			t.Errorf("cross=%v: a kind of mutation never happened", cross)
		}
	}
}

// replayScript runs one seeded script, checks the reopened state against
// the live one and returns the live server's counters.
func replayScript(t *testing.T, seed uint64, cross bool) ServerStats {
	dir := t.TempDir()
	srv, err := OpenServer(ServerConfig{StateDir: dir, CrossUserDedup: cross})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewPCG(seed, 46))
	// Alice works from device a1 and sometimes a2; bob from b. A 512 B
	// block keeps files of a few KiB on the delta path.
	a1, closeA1 := pipeClient(t, srv, "alice", "a1", nil, WithBlockSize(512))
	a2, closeA2 := pipeClient(t, srv, "alice", "a2", nil, WithBlockSize(512))
	b, closeB := pipeClient(t, srv, "bob", "b", nil, WithBlockSize(512))
	type acct struct {
		c    *Client
		live map[string][]byte // name → content, for files not deleted
		dead []string
	}
	alice := &acct{c: a1, live: map[string][]byte{}}
	bob := &acct{c: b, live: map[string][]byte{}}
	n := 0
	fresh := func(small bool) []byte {
		n++
		switch {
		case small:
			return content.Random(int64(1+rng.IntN(512)), int64(n)).Bytes()
		case rng.IntN(4) == 0: // several leaves: a delta carries leaf sums
			return content.Random(int64(protocol.LeafSize+rng.IntN(3*protocol.LeafSize)), int64(n)).Bytes()
		}
		return content.Random(int64(600+rng.IntN(3500)), int64(n)).Bytes()
	}
	pick := func(m map[string][]byte) string {
		names := make([]string, 0, len(m))
		for name, data := range m {
			if len(data) > 512 {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			return ""
		}
		sort.Strings(names)
		return names[rng.IntN(len(names))]
	}
	edit := func(data []byte) []byte {
		data = bytes.Clone(data)
		at := rng.IntN(len(data) - 8)
		copy(data[at:], fmt.Sprintf("e%07d", rng.IntN(1e7)))
		return data
	}
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, what, err)
		}
	}
	put := func(a *acct, name string, data []byte) {
		t.Helper()
		_, err := a.c.Upload(name, data)
		check("upload "+name, err)
		a.live[name] = data
		a.dead = slices.DeleteFunc(a.dead, func(d string) bool { return d == name })
	}
	for op := range 24 {
		a := alice
		if rng.IntN(4) == 0 {
			a = bob
		}
		switch k := rng.IntN(9); k {
		case 0, 1: // full or inline upload of a new name
			put(a, fmt.Sprintf("f%d", op), fresh(k == 1))
		case 2: // bundle
			var files []FileUpload
			for i := range 1 + rng.IntN(3) {
				files = append(files, FileUpload{fmt.Sprintf("b%d-%d", op, i), fresh(rng.IntN(2) == 0)})
			}
			_, err := a.c.UploadBundle(files)
			check("bundle", err)
			for _, f := range files {
				a.live[f.Name] = f.Data
			}
		case 3: // delta
			if name := pick(a.live); name != "" {
				put(a, name, edit(a.live[name]))
			}
		case 4: // a2 moves a file a1 holds a signature for: a1's next delta is stale
			if name := pick(alice.live); name != "" {
				_, err := a2.Download(name)
				check("download "+name, err)
				_, err = a2.Upload(name, edit(alice.live[name]))
				check("a2 upload "+name, err)
				put(alice, name, edit(alice.live[name]))
			}
		case 5: // delete
			if name := pick(a.live); name != "" {
				check("delete "+name, a.c.Delete(name))
				delete(a.live, name)
				a.dead = append(a.dead, name)
			}
		case 6: // recreate, with new bytes or bytes stored before
			if len(a.dead) > 0 {
				data := fresh(false)
				if other := pick(a.live); other != "" && rng.IntN(2) == 0 {
					data = a.live[other]
				}
				put(a, a.dead[rng.IntN(len(a.dead))], data)
			}
		case 7: // the other account uploads the same bytes
			from, to := alice, bob
			if a == bob {
				from, to = bob, alice
			}
			if name := pick(from.live); name != "" {
				put(to, fmt.Sprintf("copy%d", op), from.live[name])
			}
		case 8:
			check("compact", srv.CompactState())
		}
	}
	closeA1()
	closeA2()
	closeB()
	stats := srv.Stats()
	live := dumpState(srv)
	checkIdentities(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenServer(ServerConfig{StateDir: dir, CrossUserDedup: cross})
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	defer rs.Close()
	sameDump(t, fmt.Sprintf("seed %d reopened", seed), live, dumpState(rs))
	return stats
}
