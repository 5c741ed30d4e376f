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
// the sync hot path (`go test -bench 'ObsO(ff|n)$'` runs the pairs).
// propagate additionally opts the client into
// cross-process trace-context propagation (one extra TraceCtx frame
// per operation attempt).
func benchUploads(b *testing.B, observed, propagate bool) {
	cfg := ServerConfig{}
	var clientOpts []ClientOption
	if observed {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
		clientOpts = append(clientOpts, WithTracer(obs.NewTracer()))
		if propagate {
			clientOpts = append(clientOpts, WithTraceContext())
		}
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

func BenchmarkSyncUploadObsOff(b *testing.B) { benchUploads(b, false, false) }

func BenchmarkSyncUploadObsOn(b *testing.B) { benchUploads(b, true, false) }

// The propagation pair isolates the cost of shipping trace context
// across the wire on top of full instrumentation: Off is the
// instrumented baseline, On adds WithTraceContext (TraceCtx frame +
// server-side remote re-parenting).
func BenchmarkSyncUploadPropObsOff(b *testing.B) { benchUploads(b, true, false) }

func BenchmarkSyncUploadPropObsOn(b *testing.B) { benchUploads(b, true, true) }
