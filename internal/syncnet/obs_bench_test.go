package syncnet

import (
	"encoding/binary"
	"net"
	"testing"

	"cloudsync/internal/obs"
)

// benchUploads drives b.N small uploads through a client/server pair
// over net.Pipe. When observed is true the pair runs fully
// instrumented (server registry + tracer, client tracer); otherwise
// the server keeps only the private counters behind Stats and nothing
// traces. The delta between the two is the whole observability tax on
// the sync hot path, trace-context propagation included: the traced
// client sends one TraceCtx frame per operation attempt, which the
// server adopts as its request spans' remote parent (`go test -bench
// 'ObsO(ff|n)$'` runs the pair).
func benchUploads(b *testing.B, observed bool) {
	cfg := ServerConfig{}
	var clientOpts []ClientOption
	if observed {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
		clientOpts = append(clientOpts, WithTracer(obs.NewTracer()))
	}
	srv := NewServer(cfg)
	defer srv.Close()
	cp, sp := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "bench", "bench", clientOpts...)
	if err != nil {
		b.Fatal(err)
	}

	data := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the content so every iteration is a genuine transfer
		// (full upload, then delta syncs) rather than a dedup skip.
		binary.LittleEndian.PutUint64(data, uint64(i))
		if _, err := c.Upload("bench.bin", data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
	<-done
}

func BenchmarkSyncUploadObsOff(b *testing.B) { benchUploads(b, false) }

func BenchmarkSyncUploadObsOn(b *testing.B) { benchUploads(b, true) }
