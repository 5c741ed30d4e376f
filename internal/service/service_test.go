package service

import (
	"testing"
	"time"

	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/dedup"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/netem"
)

func TestNames(t *testing.T) {
	if len(All()) != 6 {
		t.Fatalf("All() = %d services, want 6", len(All()))
	}
	seen := map[string]bool{}
	for _, n := range All() {
		s := n.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	if Name(99).String() == "" {
		t.Error("unknown name should render")
	}
	if len(AccessMethods()) != 3 {
		t.Fatal("want 3 access methods")
	}
}

func TestCloudConfigsMatchTable9(t *testing.T) {
	if CloudConfig(Dropbox).DedupGranularity != dedup.Block ||
		CloudConfig(Dropbox).DedupBlockSize != 4<<20 ||
		CloudConfig(Dropbox).DedupCrossUser {
		t.Fatal("Dropbox dedup config wrong (Table 9: 4MB same-user)")
	}
	if CloudConfig(UbuntuOne).DedupGranularity != dedup.FullFile ||
		!CloudConfig(UbuntuOne).DedupCrossUser {
		t.Fatal("Ubuntu One dedup config wrong (Table 9: full-file cross-user)")
	}
	for _, n := range []Name{GoogleDrive, OneDrive, Box, SugarSync} {
		if CloudConfig(n).DedupGranularity != dedup.None {
			t.Fatalf("%v should not deduplicate", n)
		}
	}
}

func TestFixedDefermentsMatchSection61(t *testing.T) {
	cases := map[Name]time.Duration{
		GoogleDrive: 4200 * time.Millisecond,
		OneDrive:    10500 * time.Millisecond,
		SugarSync:   6 * time.Second,
		Dropbox:     0,
		Box:         0,
		UbuntuOne:   0,
	}
	for n, want := range cases {
		if got := FixedDeferment(n); got != want {
			t.Errorf("%v deferment = %v, want %v", n, got, want)
		}
	}
}

func TestSyncGranularityMatchesSection43(t *testing.T) {
	// Only Dropbox and SugarSync PC clients use IDS; every web and
	// mobile client is full-file.
	for _, n := range All() {
		for _, a := range AccessMethods() {
			cfg := ClientConfig(n, a)
			wantIDS := a == client.PC && (n == Dropbox || n == SugarSync)
			if gotIDS := !cfg.FullFileSync; gotIDS != wantIDS {
				t.Errorf("%v/%v: IDS = %v, want %v", n, a, gotIDS, wantIDS)
			}
		}
	}
	if ClientConfig(Dropbox, client.PC).ChunkSize != 10<<10 {
		t.Error("Dropbox PC chunk size should be ≈ 10 KB (§ 4.3 estimate)")
	}
}

func TestBDSMatchesTable7(t *testing.T) {
	// Only Dropbox and Ubuntu One implement BDS.
	for _, n := range All() {
		cfg := ClientConfig(n, client.PC)
		want := n == Dropbox || n == UbuntuOne
		if cfg.BDS != want {
			t.Errorf("%v PC BDS = %v, want %v", n, cfg.BDS, want)
		}
	}
	// Partial BDS (limited bundles) on Dropbox web/mobile and Ubuntu
	// One web.
	if ClientConfig(Dropbox, client.Web).BundleSize == 0 {
		t.Error("Dropbox web should use limited bundles")
	}
	if ClientConfig(UbuntuOne, client.Mobile).BDS {
		t.Error("Ubuntu One mobile should not bundle")
	}
}

func TestCompressionMatchesTable8(t *testing.T) {
	// No web client compresses uploads.
	for _, n := range All() {
		if ClientConfig(n, client.Web).UploadCompression.String() != "none" {
			t.Errorf("%v web upload compression should be none", n)
		}
	}
	// Google Drive, OneDrive, Box, SugarSync never compress.
	for _, n := range []Name{GoogleDrive, OneDrive, Box, SugarSync} {
		for _, a := range AccessMethods() {
			cfg := ClientConfig(n, a)
			if cfg.UploadCompression.String() != "none" || cfg.DownloadCompression.String() != "none" {
				t.Errorf("%v/%v should not compress", n, a)
			}
		}
	}
	// Dropbox compresses on every access method's downloads.
	for _, a := range AccessMethods() {
		if ClientConfig(Dropbox, a).DownloadCompression.String() == "none" {
			t.Errorf("Dropbox %v downloads should be compressed", a)
		}
	}
	// Ubuntu One mobile downloads are uncompressed (Table 8 DN: 10.6).
	if ClientConfig(UbuntuOne, client.Mobile).DownloadCompression.String() != "none" {
		t.Error("Ubuntu One mobile downloads should be uncompressed")
	}
}

func TestDedupByAccessMatchesTable9(t *testing.T) {
	// Web-based sync does not deduplicate for any service.
	for _, n := range All() {
		if ClientConfig(n, client.Web).UseDedup {
			t.Errorf("%v web should not dedup", n)
		}
	}
	for _, a := range []client.AccessMethod{client.PC, client.Mobile} {
		if !ClientConfig(Dropbox, a).UseDedup {
			t.Errorf("Dropbox %v should dedup", a)
		}
		if !ClientConfig(UbuntuOne, a).UseDedup {
			t.Errorf("Ubuntu One %v should dedup", a)
		}
	}
}

func TestPersistentConnections(t *testing.T) {
	if !Persistent(Dropbox, client.PC) || !Persistent(UbuntuOne, client.PC) {
		t.Fatal("Dropbox and Ubuntu One PC clients keep persistent connections")
	}
	if Persistent(GoogleDrive, client.PC) {
		t.Fatal("Google Drive PC is modeled as per-sync connections")
	}
	for _, n := range All() {
		if Persistent(n, client.Web) || Persistent(n, client.Mobile) {
			t.Fatalf("%v web/mobile should not be persistent", n)
		}
	}
}

// creationTraffic runs Experiment 1 for one service/access/size.
func creationTraffic(t *testing.T, n Name, a client.AccessMethod, size int64) int64 {
	t.Helper()
	s := NewSetup(n, a, Options{})
	if err := s.FS.Create("f", content.Random(size, 42)); err != nil {
		t.Fatal(err)
	}
	s.Clock.Run()
	return s.Capture.TotalBytes()
}

func TestTable6OneByteCalibration(t *testing.T) {
	// Paper Table 6, PC client, 1-byte file (bytes). The model should
	// land within a factor ≈ 1.6 of each measurement, and preserve the
	// ordering (Ubuntu One cheapest, Box most expensive).
	want := map[Name]int64{
		GoogleDrive: 9 << 10,
		OneDrive:    19 << 10,
		Dropbox:     38 << 10,
		Box:         55 << 10,
		UbuntuOne:   2 << 10,
		SugarSync:   9 << 10,
	}
	got := map[Name]int64{}
	for n, w := range want {
		g := creationTraffic(t, n, client.PC, 1)
		got[n] = g
		lo, hi := w*5/8, w*8/5
		if g < lo || g > hi {
			t.Errorf("%v PC 1B traffic = %d, want ≈ %d", n, g, w)
		}
	}
	if !(got[UbuntuOne] < got[GoogleDrive] && got[GoogleDrive] < got[Dropbox] && got[Dropbox] < got[Box]) {
		t.Errorf("ordering violated: %v", got)
	}
}

func TestTable6TenMBCalibration(t *testing.T) {
	// 10 MB compressed-file creation: total/size ratios from Table 6's
	// PC column (1.06–1.25).
	const size = 10 << 20
	for _, n := range All() {
		g := creationTraffic(t, n, client.PC, size)
		ratio := float64(g) / float64(size)
		if ratio < 1.0 || ratio > 1.35 {
			t.Errorf("%v PC 10MB ratio = %.3f, want ≈ 1.05–1.30", n, ratio)
		}
	}
}

func TestWebAndMobileOverheadsPlausible(t *testing.T) {
	// Every web/mobile 1-byte creation costs 6 K–60 K (Table 6 band).
	for _, n := range All() {
		for _, a := range []client.AccessMethod{client.Web, client.Mobile} {
			g := creationTraffic(t, n, a, 1)
			if g < 6_000 || g > 64_000 {
				t.Errorf("%v/%v 1B traffic = %d, want within Table 6's 6K–60K band", n, a, g)
			}
		}
	}
}

func TestSetupOptions(t *testing.T) {
	s := NewSetup(Dropbox, client.PC, Options{
		Link:  netem.Beijing(),
		User:  "bob",
		Defer: &deferpolicy.Policy{Kind: deferpolicy.ASD, Epsilon: 500 * time.Millisecond, TMax: time.Minute},
	})
	if s.Path.Link().UpBps != netem.Beijing().UpBps {
		t.Fatal("link option not applied")
	}
	if s.Client.Config().User != "bob" {
		t.Fatal("user option not applied")
	}
	if s.Client.Config().Defer.Kind == deferpolicy.None {
		t.Fatal("defer override not applied")
	}
}

func TestSharedCloudAcrossUsers(t *testing.T) {
	alice := NewSetup(UbuntuOne, client.PC, Options{User: "alice"})
	blob := content.Random(1<<20, 7)
	alice.FS.Create("f", blob)
	alice.Clock.Run()

	bob := NewSetup(UbuntuOne, client.PC, Options{
		User:    "bob",
		Cloud:   alice.Cloud,
		Clock:   alice.Clock,
		Capture: alice.Capture,
	})
	m := alice.Capture.Mark()
	bob.FS.Create("f", content.Random(1<<20, 7))
	alice.Clock.Run()
	up, down := alice.Capture.Since(m)
	// Ubuntu One dedups across users: bob's identical upload is cheap.
	if total := up + down; total > 50_000 {
		t.Fatalf("cross-user duplicate upload cost %d, want control traffic only", total)
	}
}
