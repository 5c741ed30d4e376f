package syncnet

import (
	"encoding/binary"
	"net"
	"strconv"
	"testing"

	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/kerneltest"
)

// benchClient connects a client to srv: over net.Pipe — synchronous,
// no kernel, the allocation-counting transport — or, with tcp, over a
// loopback socket, where every request/reply exchange pays the
// syscalls and scheduler hand-offs a round trip really costs. The
// returned func closes the client and waits for its session to end.
func benchClient(tb testing.TB, srv *Server, tcp bool, opts ...ClientOption) (*Client, func()) {
	tb.Helper()
	cp, sp := net.Pipe()
	if tcp {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		defer l.Close()
		if cp, err = net.Dial("tcp", l.Addr().String()); err != nil {
			tb.Fatal(err)
		}
		if sp, err = l.Accept(); err != nil {
			tb.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "bench", "bench", opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return c, func() {
		c.Close()
		<-done
	}
}

// benchBatchClient runs fn (one batched upload) b.N times over a
// benchClient, reporting per-operation allocations — the live-path
// budget the pooled frame buffers, reused digest state, and vectored
// data writes exist to hold down.
func benchBatchClient(b *testing.B, files int, tcp bool, fn func(c *Client, batch []FileUpload) error) {
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	c, closeC := benchClient(b, srv, tcp)

	batch := makeBatch("bench", files, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// New content each round: every iteration is a genuine full
		// transfer of the whole batch, never a dedup skip.
		for j := range batch {
			binary.LittleEndian.PutUint64(batch[j].Data, uint64(i)<<8|uint64(j))
		}
		if err := fn(c, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	closeC()
}

func BenchmarkUploadBundle8(b *testing.B) {
	benchBatchClient(b, 8, false, uploadBundle)
}

func uploadBundle(c *Client, batch []FileUpload) error {
	_, err := c.UploadBundle(batch)
	return err
}

// uploadBundle8 is BenchmarkUploadBundle8 as a step: one bundle of
// eight new 1 KiB files, each stored as a content of one leaf. 256
// bundles go first, so that the content store's map has grown past the
// sizes at which a few steps would pay for its growth.
func uploadBundle8(tb testing.TB) (upload, done func()) {
	srv := NewServer(ServerConfig{})
	c, closeC := benchClient(tb, srv, false)
	batch := makeBatch("bench", 8, 1024)
	n := 0
	upload = func() {
		n++
		for j := range batch {
			binary.LittleEndian.PutUint64(batch[j].Data, uint64(n)<<8|uint64(j))
		}
		if err := uploadBundle(c, batch); err != nil {
			tb.Fatal(err)
		}
	}
	for range 256 {
		upload()
	}
	return upload, func() {
		closeC()
		srv.Close()
	}
}

// uploadLockstep uploads the batch one blocking Upload at a time. The
// files are 1 KiB, so each rides inline: one exchange per file where
// the bundle pays one per batch.
func uploadLockstep(c *Client, batch []FileUpload) error {
	for _, f := range batch {
		if _, err := c.Upload(f.Name, f.Data); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkUploadLockstep8 is the per-operation allocation comparator
// for the bundle above.
func BenchmarkUploadLockstep8(b *testing.B) { benchBatchClient(b, 8, false, uploadLockstep) }

// BenchmarkUploadLockstepTCP8 is the same batch over a loopback socket:
// net.Pipe hands bytes over inside one process, so only here does the
// count of round trips per file show in ns/op.
func BenchmarkUploadLockstepTCP8(b *testing.B) { benchBatchClient(b, 8, true, uploadLockstep) }

// BenchmarkDeltaSyncRepeat is the repeat-modification round trip the
// signature caches — the server's and the client's — exist for
// (deltaSyncRepeat). Bytes/s is file bytes kept in sync per second, not
// wire bytes.
func BenchmarkDeltaSyncRepeat(b *testing.B) { benchDeltaSyncRepeat(b, false) }

// BenchmarkDeltaSyncRepeatTCP is the same exchange over a loopback
// socket (see BenchmarkUploadLockstepTCP8).
func BenchmarkDeltaSyncRepeatTCP(b *testing.B) { benchDeltaSyncRepeat(b, true) }

func benchDeltaSyncRepeat(b *testing.B, tcp bool) {
	edit, done := deltaSyncRepeat(b, tcp)
	b.SetBytes(4 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit()
	}
	b.StopTimer()
	done()
}

// deltaSyncRepeat sets up one 4 MiB file on a fresh server and returns
// a step that makes 8 in-place 256-byte edits and re-uploads it as a
// version-conditional delta. The edit is an XOR toggle, so the file
// alternates between two contents and the server's never-evicting
// content store stays at two blobs however many steps run. Both
// contents are stored and the signature caches warm before it returns.
func deltaSyncRepeat(tb testing.TB, tcp bool) (edit, done func()) {
	const size, regions, editLen = 4 << 20, 8, 256
	srv := NewServer(ServerConfig{})
	c, closeC := benchClient(tb, srv, tcp)
	data := append([]byte(nil), content.Random(size, 1).Bytes()...)
	toggle := func() {
		for r := 0; r < regions; r++ {
			region := data[r*(size/regions)+4096:][:editLen]
			for i := range region {
				region[i] ^= 0xA5
			}
		}
	}
	if _, err := c.Upload("big", data); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		toggle()
		if _, err := c.Upload("big", data); err != nil {
			tb.Fatal(err)
		}
	}
	edit = func() {
		toggle()
		st, err := c.Upload("big", data)
		if err != nil {
			tb.Fatal(err)
		}
		if !st.DeltaSync {
			tb.Fatal("re-upload was not a delta sync")
		}
	}
	return edit, func() {
		closeC()
		srv.Close()
	}
}

// BenchmarkFullUploadDedupHit is a full upload the server answers from
// its content store (fullUploadDedupHit). A hit costs the content hash,
// the held signature and one round trip, and never the 1 MiB Compress
// (BenchmarkCompress1MBText in internal/comp: its allocations and
// about 36 ms on a 2-vCPU Xeon).
func BenchmarkFullUploadDedupHit(b *testing.B) {
	upload, done := fullUploadDedupHit(b)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upload()
	}
	b.StopTimer()
	done()
}

// fullUploadDedupHit stores a 1 MiB text at comp.Moderate and returns a
// step that uploads it again under a new name over net.Pipe. The client
// asks before it compresses, so each step is a dedup hit that
// compresses nothing.
func fullUploadDedupHit(tb testing.TB) (upload, done func()) {
	srv := NewServer(ServerConfig{Compression: comp.Moderate})
	c, closeC := benchClient(tb, srv, false, WithCompression(comp.Moderate))
	data := content.Text(1<<20, 1).Bytes()
	if _, err := c.Upload("original", data); err != nil {
		tb.Fatal(err)
	}
	n := 0
	upload = func() {
		n++
		st, err := c.Upload("copy"+strconv.Itoa(n), data)
		if err != nil {
			tb.Fatal(err)
		}
		if !st.DedupHit {
			tb.Fatal("re-upload of stored content was not a dedup hit")
		}
	}
	return upload, func() {
		closeC()
		srv.Close()
	}
}

// TestAllocCeilings pins the allocations of three live round trips,
// process-wide (client and server), row names after their benchmarks.
// The repeat delta sync stays at Resign's O(edit) hashing on a
// signature the client holds, and the server signs nothing; losing
// either shows as Sign's allocations and a SigRequest exchange. Its
// decoded literals alias the message payload; cloning each shows as 8
// more. The
// dedup hit compresses nothing; compressing anyway shows as Compress's
// allocations. The bundle stores each small file as one allocation
// beside its bytes (a blob holds its one leaf itself); a separate leaf
// slice per file shows as 8 more. The ceilings are 10 % over the
// counts measured (24, 20 and 34; a server without a logger boxes no
// log arguments, and untraced spans box no attributes), which move by
// one from run to run. Holding leaf tags beside each held signature
// adds one slice to the repeat delta sync and to the dedup hit (25
// and 21), inside the same ceilings: each tag is sealed into its slot,
// and the delta's leaf verdicts reuse the client's one list. The paths draw
// frame buffers and flate writers from pools, which the race detector
// drops, so the test skips under -race.
func TestAllocCeilings(t *testing.T) {
	if kerneltest.Race {
		t.Skip("the race detector drops pooled items")
	}
	leakCheck(t)
	for _, tc := range []struct {
		name    string
		ceiling float64
		setup   func(testing.TB) (step, done func())
	}{
		{"DeltaSyncRepeat", 26, func(tb testing.TB) (func(), func()) { return deltaSyncRepeat(tb, false) }},
		{"FullUploadDedupHit", 22, fullUploadDedupHit},
		{"UploadBundle8", 37, uploadBundle8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step, done := tc.setup(t)
			defer done()
			if allocs := testing.AllocsPerRun(5, step); allocs > tc.ceiling {
				t.Errorf("%.0f allocations per round trip, ceiling %.0f", allocs, tc.ceiling)
			}
		})
	}
}
