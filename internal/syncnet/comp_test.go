package syncnet

import (
	"bytes"
	"crypto/md5"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
)

// TestFullUploadCompressesOnlyMisses: a full upload asks before it
// compresses, so over large-create's op mix — every fourth upload
// re-sends its predecessor's content under another name — the client
// compresses 0.75 payloads per upload and the server inflates as many.
func TestFullUploadCompressesOnlyMisses(t *testing.T) {
	reg := obs.NewRegistry()
	_, dial := startServer(t, ServerConfig{Compression: comp.Moderate, Metrics: reg})
	c, _ := dial("alice", WithCompression(comp.Moderate), WithClientMetrics(reg))

	const uploads = 8
	hits := 0
	var prev []byte
	for i := range uploads {
		data := content.Text(64<<10, int64(i)).Bytes()
		wantHit := i%4 == 3
		if wantHit {
			data, hits = prev, hits+1
		}
		st, err := c.Upload("doc"+strconv.Itoa(i), data)
		if err != nil {
			t.Fatal(err)
		}
		if st.DeltaSync || st.DedupHit != wantHit {
			t.Fatalf("upload %d: %+v, want a full upload with DedupHit %v", i, st, wantHit)
		}
		if wantHit && st.PayloadBytes != 0 {
			t.Fatalf("upload %d: a dedup hit sent %d payload bytes", i, st.PayloadBytes)
		}
		prev = data
	}
	c.Close()
	for _, name := range []string{"syncnet_client_compress_us", "syncd_decompress_us"} {
		if n := reg.Histogram(name, "").Count(); n != int64(uploads-hits) {
			t.Errorf("%s counted %d payloads over %d uploads with %d dedup hits, want %d",
				name, n, uploads, hits, uploads-hits)
		}
	}
}

// TestServerCapsUploadBuffer: a Data piece that would buffer more than
// the announced size can compress to ends the session without a reply,
// exactly at the bound, and the server serves the next connection.
func TestServerCapsUploadBuffer(t *testing.T) {
	leakCheck(t)
	for _, level := range []comp.Level{comp.None, comp.Moderate} {
		t.Run(level.String(), func(t *testing.T) {
			srv := NewServer(ServerConfig{Compression: level})
			t.Cleanup(func() { srv.Close() })
			const size = 20_000
			bound := int(comp.CompressBound(size, level))

			cp, sp := net.Pipe()
			defer cp.Close()
			done := make(chan error, 1)
			go func() { done <- srv.HandleConn(sp) }()
			write := func(m protocol.Message) {
				t.Helper()
				if _, err := cp.Write(protocol.Encode(m)); err != nil {
					t.Fatalf("write %v: %v", m.Type(), err)
				}
			}
			write(&protocol.Hello{User: "alice", Device: "flooder"})
			write(&protocol.IndexUpdate{Name: "f", Size: size})
			ir, ok := mustRead(t, cp).(*protocol.IndexReply)
			if !ok {
				t.Fatal("no index reply")
			}
			junk := make([]byte, bound+1)
			write(&protocol.Data{FileID: ir.FileID, Payload: junk[:bound]}) // up to the bound: buffered
			write(&protocol.Data{FileID: ir.FileID, Offset: int64(bound), Payload: junk[bound:]})
			cp.SetReadDeadline(time.Now().Add(10 * time.Second)) // an uncapped server waits for more
			if m, err := protocol.ReadMessage(cp); err != io.EOF {
				t.Fatalf("reply to the over-send = %#v, %v; want EOF", m, err)
			}
			if err := <-done; err == nil || !strings.Contains(err.Error(), "past") {
				t.Fatalf("HandleConn = %v, want the over-send refused", err)
			}

			cp2, sp2 := net.Pipe()
			go srv.HandleConn(sp2)
			c, err := NewClient(cp2, "alice", "next", WithCompression(level))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			data := content.Text(size, 1).Bytes()
			if _, err := c.Upload("f", data); err != nil {
				t.Fatalf("upload on the next connection: %v", err)
			}
			if got, err := c.Download("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("download on the next connection: %d bytes, %v", len(got), err)
			}
		})
	}
}

func mustRead(t *testing.T, r io.Reader) protocol.Message {
	t.Helper()
	m, err := protocol.ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDownloadRefusesLyingSize: a server whose FileInfo misstates the
// size gets an error, never a panic or an allocation the size asks for.
func TestDownloadRefusesLyingSize(t *testing.T) {
	data := content.Text(100_000, 2).Bytes()
	packed := comp.Compress(data, comp.Moderate)
	size := int64(len(data))
	cases := []struct {
		name    string
		level   comp.Level
		payload []byte
		size    int64
	}{
		{"too small", comp.Moderate, packed, size - 1},
		{"too large", comp.Moderate, packed, size + 1},
		{"past 1032:1", comp.Moderate, packed, 1 << 40},
		{"payload past the size's bound", comp.Moderate, packed, 100},
		{"negative", comp.Moderate, packed, -1},
		{"uncompressed, too large", comp.None, data, size + 1},
		{"uncompressed, too small", comp.None, data, size - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, sp := net.Pipe()
			defer sp.Close()
			go func() {
				defer sp.Close()
				for _, want := range []protocol.MsgType{protocol.TypeHello, protocol.TypeGet} {
					if m, err := protocol.ReadMessage(sp); err != nil || m.Type() != want {
						return
					}
				}
				frames := []protocol.Message{&protocol.FileInfo{FileID: 1, Name: "f", Size: tc.size, Version: 1, Compression: uint8(tc.level)}}
				for off := 0; off < len(tc.payload); off += DataPieceSize {
					frames = append(frames, &protocol.Data{FileID: 1, Offset: int64(off), Payload: tc.payload[off:min(off+DataPieceSize, len(tc.payload))]})
				}
				frames = append(frames, &protocol.Ack{FileID: 1, Version: 1, OK: true})
				for _, m := range frames {
					if _, err := sp.Write(protocol.Encode(m)); err != nil {
						return
					}
				}
			}()
			c, err := NewClient(cp, "alice", "reader")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := c.Download("f")
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("download of a lying FileInfo returned %d bytes and no error", len(got))
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
				t.Fatalf("refused download allocated %d bytes", n)
			}
		})
	}
}

// TestContentSizeMismatchHardAndSoft: a compressed payload that does
// not inflate to its announced size is refused with "content size
// mismatch" — hard for a lone upload, which ends its session, soft for
// a bundle entry, whose neighbours still commit.
func TestContentSizeMismatchHardAndSoft(t *testing.T) {
	srv := NewServer(ServerConfig{Compression: comp.Moderate})
	t.Cleanup(func() { srv.Close() })
	data := content.Text(50_000, 3).Bytes()
	packed := comp.Compress(data, comp.Moderate)
	hash := md5.Sum(data)

	t.Run("lone upload", func(t *testing.T) {
		cp, sp := net.Pipe()
		defer cp.Close()
		done := make(chan error, 1)
		go func() { done <- srv.HandleConn(sp) }()
		cp.Write(protocol.Encode(&protocol.Hello{User: "alice"}))
		cp.Write(protocol.Encode(&protocol.IndexUpdate{Name: "lone", Size: int64(len(data)) + 1, FileHash: hash}))
		ir, ok := mustRead(t, cp).(*protocol.IndexReply)
		if !ok || ir.DedupHit {
			t.Fatalf("index reply: %#v", ir)
		}
		cp.Write(protocol.Encode(&protocol.Data{FileID: ir.FileID, Payload: packed}))
		cp.Write(protocol.Encode(&protocol.Commit{FileID: ir.FileID}))
		e, ok := mustRead(t, cp).(*protocol.Error)
		if !ok || e.Code != protocol.ErrBadRequest || e.Msg != "content size mismatch" {
			t.Fatalf("reply = %#v, want ErrBadRequest \"content size mismatch\"", e)
		}
		if err := <-done; err == nil {
			t.Fatal("session survived a lone upload that failed verification")
		}
	})

	t.Run("bundle entry", func(t *testing.T) {
		cp, sp := net.Pipe()
		defer cp.Close()
		go srv.HandleConn(sp)
		other := content.Text(3_000, 4).Bytes()
		cp.Write(protocol.Encode(&protocol.Hello{User: "alice"}))
		cp.Write(protocol.Encode(&protocol.Bundle{Entries: []protocol.BundleEntry{
			{Name: "before", Size: int64(len(other)), FileHash: md5.Sum(other), Payload: comp.Compress(other, comp.Moderate)},
			{Name: "liar", Size: int64(len(data)) - 1, FileHash: hash, Payload: packed},
			{Name: "after", Size: int64(len(data)), FileHash: hash, Payload: packed},
		}}))
		br, ok := mustRead(t, cp).(*protocol.BundleReply)
		if !ok || len(br.Results) != 3 {
			t.Fatalf("reply = %#v, want a three-entry BundleReply", br)
		}
		if !br.Results[0].OK || br.Results[1].OK || !br.Results[2].OK {
			t.Fatalf("results = %+v, want only the mis-sized entry refused", br.Results)
		}
		rp, rsp := net.Pipe()
		go srv.HandleConn(rsp)
		c, err := NewClient(rp, "alice", "reader", WithCompression(comp.Moderate))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Download("after"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("entry after the refused one: %d bytes, %v", len(got), err)
		}
		if _, err := c.Download("liar"); err == nil {
			t.Fatal("the refused entry was committed")
		}
		c.Close()
	})
}
