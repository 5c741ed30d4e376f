package cloudsync

import (
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	sim := New(Dropbox, PC)
	m := sim.Measure(func() {
		if err := sim.CreateRandomFile("photo.jpg", 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if m.Traffic() < 1<<20 {
		t.Fatalf("traffic = %d, want ≥ file size", m.Traffic())
	}
	tue := TUE(m.Traffic(), 1<<20)
	if tue < 1.0 || tue > 1.6 {
		t.Fatalf("TUE = %.2f, want ≈ 1.3", tue)
	}
	size, err := sim.CloudFileSize("photo.jpg")
	if err != nil || size != 1<<20 {
		t.Fatalf("cloud size = %d, %v", size, err)
	}
	if sim.Sessions() == 0 {
		t.Fatal("no sessions recorded")
	}
}

func TestServicesEnumeration(t *testing.T) {
	if len(Services()) != 6 {
		t.Fatalf("Services() = %d", len(Services()))
	}
}

func TestReferenceDesignViaFacade(t *testing.T) {
	sim := New(Reference, PC)
	// Appends past any fixed-deferment boundary still batch (ASD), and
	// compressible content shrinks on the wire.
	m := sim.Measure(func() { sim.CreateTextFile("doc.txt", 1<<20) })
	if tue := TUE(m.Traffic(), 1<<20); tue > 0.8 {
		t.Fatalf("reference text TUE = %.2f, want < 0.8 (compression)", tue)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reference design on Web access should panic")
		}
	}()
	New(Reference, Web)
}

func TestTUEWrapper(t *testing.T) {
	if got := TUE(200, 100); got != 2.0 {
		t.Fatalf("TUE = %v", got)
	}
}

// TestMeasureCoversOnlyItsOp: consecutive measurements each report
// their own operation's traffic, exactly split by cause.
func TestMeasureCoversOnlyItsOp(t *testing.T) {
	sim := New(Dropbox, PC)
	create := sim.Measure(func() { sim.CreateRandomFile("a", 1<<20) })
	modify := sim.Measure(func() { sim.ModifyByte("a", 10) })
	// Dropbox syncs a one-byte edit as one chunk's delta, so the modify
	// is a small fraction of the create unless it counts the create too.
	if create.Traffic() < 1<<20 || modify.Traffic() == 0 || modify.Traffic() > create.Traffic()/4 {
		t.Fatalf("create %d B, modify %d B: want at least the file's size, then one chunk",
			create.Traffic(), modify.Traffic())
	}
	if idle := sim.Measure(func() {}); idle.Traffic() != 0 {
		t.Fatalf("an empty op measured %d B", idle.Traffic())
	}
	for _, m := range []Measurement{create, modify} {
		if m.Causes.Total() != m.Traffic() {
			t.Fatalf("causes sum to %d, traffic is %d", m.Causes.Total(), m.Traffic())
		}
	}
}

func TestOptionsCompose(t *testing.T) {
	sim := New(Box, PC,
		FromBeijing(),
		WithHardware("M2"),
		WithUser("bob"),
	)
	if sim.Measure(func() { sim.CreateRandomFile("f", 1000) }).Traffic() == 0 {
		t.Fatal("simulation with options produced no traffic")
	}
}

func TestWithNetworkAndASD(t *testing.T) {
	sim := New(GoogleDrive, PC,
		WithNetwork(8_000_000, 100*time.Millisecond),
		WithAdaptiveSyncDefer(500*time.Millisecond, time.Minute),
	)
	sim.CreateRandomFile("doc", 0)
	sim.Run()
	// Appends every 8 s — past Google Drive's native 4.2 s deferment —
	// batch under ASD.
	m := sim.Measure(func() {
		for i := 1; i <= 32; i++ {
			sim.At(time.Duration(i)*8*time.Second, func() { sim.Append("doc", 1024) })
		}
	})
	if tue := TUE(m.Traffic(), 32*1024); tue > 4 {
		t.Fatalf("ASD TUE = %.1f, want ≈ 1", tue)
	}
}

func TestWithUnknownHardwarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown hardware did not panic")
		}
	}()
	New(Dropbox, PC, WithHardware("M9"))
}

func TestSharedCloudDedup(t *testing.T) {
	alice := New(UbuntuOne, PC, WithUser("alice"))
	data := []byte("identical content shared by two users; long enough to matter")
	if err := alice.CreateFileFromBytes("shared.txt", data); err != nil {
		t.Fatal(err)
	}
	alice.Run()

	bob := New(UbuntuOne, PC, WithUser("bob"), SharedCloud(alice))
	if err := bob.CreateFileFromBytes("mine.txt", append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	alice.Run() // shared clock
	if bob.DedupSkips() != 1 {
		t.Fatalf("cross-user dedup skips = %d, want 1", bob.DedupSkips())
	}
}

func TestDownloadAndDirections(t *testing.T) {
	sim := New(Dropbox, PC)
	create := sim.Measure(func() { sim.CreateTextFile("doc.txt", 200_000) })
	dl := sim.Measure(func() {
		if err := sim.Download("doc.txt"); err != nil {
			t.Fatal(err)
		}
	})
	if dl.Down == 0 || dl.Down < dl.Up {
		t.Fatalf("download should be downstream-heavy: up=%d down=%d", dl.Up, dl.Down)
	}
	if create.Up == 0 || create.Up < create.Down {
		t.Fatalf("upload should be upstream-heavy: up=%d down=%d", create.Up, create.Down)
	}
	if dl.Causes.Total() != dl.Traffic() {
		t.Fatalf("download causes sum to %d, traffic is %d", dl.Causes.Total(), dl.Traffic())
	}
}
