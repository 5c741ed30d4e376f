package syncnet

import (
	"encoding/binary"
	"net"
	"testing"

	"cloudsync/internal/content"
)

// benchBatchClient runs fn (one batched upload) b.N times over a
// net.Pipe-served client, reporting per-operation allocations — the
// live-path budget the pooled frame buffers, reused digest state, and
// vectored data writes exist to hold down.
func benchBatchClient(b *testing.B, files int, fn func(c *Client, batch []FileUpload) error) {
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	cp, sp := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "bench", "bench")
	if err != nil {
		b.Fatal(err)
	}

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
	c.Close()
	<-done
}

func BenchmarkUploadBundle8(b *testing.B) {
	benchBatchClient(b, 8, func(c *Client, batch []FileUpload) error {
		_, err := c.UploadBundle(batch)
		return err
	})
}

func BenchmarkUploadPipelined8(b *testing.B) {
	// Window 1 over net.Pipe: the unbuffered transport cannot absorb
	// outstanding replies (see UploadPipelined's doc comment).
	benchBatchClient(b, 8, func(c *Client, batch []FileUpload) error {
		_, err := c.UploadPipelined(batch, 1)
		return err
	})
}

// BenchmarkUploadLockstep8 uploads the same batch one blocking Upload
// at a time — the per-operation allocation comparator for the batched
// paths above.
func BenchmarkUploadLockstep8(b *testing.B) {
	benchBatchClient(b, 8, func(c *Client, batch []FileUpload) error {
		for _, f := range batch {
			if _, err := c.Upload(f.Name, f.Data); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkDeltaSyncRepeat is the repeat-modification round trip the
// signature cache exists for: one 4 MiB file, 8 in-place 256-byte edits
// per iteration, re-uploaded through SigRequest/Delta over net.Pipe.
// The edit is an XOR toggle, so the file alternates between two
// contents and the server's never-evicting content store stays at two
// blobs however long the benchmark runs. Bytes/s is file bytes kept in
// sync per second, not wire bytes.
func BenchmarkDeltaSyncRepeat(b *testing.B) {
	const size, regions, editLen = 4 << 20, 8, 256
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	cp, sp := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "bench", "bench")
	if err != nil {
		b.Fatal(err)
	}
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
	c.Close()
	<-done
}
