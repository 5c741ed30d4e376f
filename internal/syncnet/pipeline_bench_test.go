package syncnet

import (
	"encoding/binary"
	"net"
	"testing"

	"cloudsync/internal/content"
)

// benchClient connects a client to srv: over net.Pipe — synchronous,
// no kernel, the allocation-counting transport — or, with tcp, over a
// loopback socket, where every request/reply exchange pays the
// syscalls and scheduler hand-offs a round trip really costs. The
// returned func closes the client and waits for its session to end.
func benchClient(b *testing.B, srv *Server, tcp bool) (*Client, func()) {
	b.Helper()
	cp, sp := net.Pipe()
	if tcp {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		if cp, err = net.Dial("tcp", l.Addr().String()); err != nil {
			b.Fatal(err)
		}
		if sp, err = l.Accept(); err != nil {
			b.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "bench", "bench")
	if err != nil {
		b.Fatal(err)
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
	benchBatchClient(b, 8, false, func(c *Client, batch []FileUpload) error {
		_, err := c.UploadBundle(batch)
		return err
	})
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
// signature caches — the server's and the client's — exist for: one
// 4 MiB file, 8 in-place 256-byte edits per iteration, re-uploaded as a
// version-conditional delta over net.Pipe. The edit is an XOR toggle,
// so the file alternates between two contents and the server's
// never-evicting content store stays at two blobs however long the
// benchmark runs. Bytes/s is file bytes kept in sync per second, not
// wire bytes.
func BenchmarkDeltaSyncRepeat(b *testing.B) { benchDeltaSyncRepeat(b, false) }

// BenchmarkDeltaSyncRepeatTCP is the same exchange over a loopback
// socket (see BenchmarkUploadLockstepTCP8).
func BenchmarkDeltaSyncRepeatTCP(b *testing.B) { benchDeltaSyncRepeat(b, true) }

func benchDeltaSyncRepeat(b *testing.B, tcp bool) {
	const size, regions, editLen = 4 << 20, 8, 256
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	c, closeC := benchClient(b, srv, tcp)
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
		b.Fatal(err)
	}
	// Both contents stored and the cache warm before timing starts.
	for i := 0; i < 2; i++ {
		toggle()
		if _, err := c.Upload("big", data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toggle()
		st, err := c.Upload("big", data)
		if err != nil {
			b.Fatal(err)
		}
		if !st.DeltaSync {
			b.Fatal("re-upload was not a delta sync")
		}
	}
	b.StopTimer()
	closeC()
}
