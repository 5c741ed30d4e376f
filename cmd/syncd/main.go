// Command syncd runs the live cloudsync sync service on a TCP address:
// per-user namespaces, compression, full-file deduplication, rsync
// delta sync, and fake deletion — the sync mechanisms the paper
// recommends providers implement, end to end.
//
// Usage:
//
//	syncd -addr 127.0.0.1:7777 -compress -cross-user-dedup
//	syncd -obs-addr 127.0.0.1:8080   # live /metrics, /healthz, pprof
//
// With -state-dir, server state is durable: every acknowledged commit
// is group-committed to an append-only CRC-framed log before the ACK,
// and restarting syncd on the same directory replays it back (see
// docs/DURABILITY.md). The default remains purely in-RAM.
//
// For resilience testing, -fault-drop-bytes cuts every accepted
// connection after a seeded pseudo-random byte budget, so retrying
// clients exercise the resume protocol against a real listener, and
// -fault-crash-bytes arms an in-process kill -9: the group commit that
// would carry the durable log past a seeded offset writes only a torn
// prefix and the process exits for its supervisor to restart into
// recovery. With -obs-addr, a second HTTP listener serves
// Prometheus-text metrics at /metrics, a liveness probe at /healthz,
// and the standard net/http/pprof profiling endpoints (see
// docs/OBSERVABILITY.md).
//
// With -state-dir, a flight recorder keeps the last -flight-records
// handled requests in a lock-cheap ring; when the durable state
// crashes, the ring is dumped to <state-dir>/flight-<ts>.jsonl before
// the process exits — a black box for the post-mortem. -trace-dump
// writes the server's span dump on shutdown; merge it with a client's
// dump via the tracemerge command to get one cross-process timeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"cloudsync/internal/comp"
	"cloudsync/internal/obs"
	"cloudsync/internal/syncnet"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7777", "listen address")
		compress  = flag.Bool("compress", true, "compress content on the wire and at rest")
		crossUser = flag.Bool("cross-user-dedup", false, "share the dedup index across accounts")
		blockSize = flag.Int("block-size", 0, "delta-sync granularity in bytes (0 = default 8 KiB)")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
		stateDir  = flag.String("state-dir", "",
			"durable state directory: replay on start, group-commit before every ACK (empty = in-RAM)")

		faultBytes = flag.Int64("fault-drop-bytes", 0,
			"cut each connection after ~this many bytes (0 = no fault injection)")
		faultDrops = flag.Int("fault-max-drops", 0,
			"stop injecting after this many cuts (0 = unlimited)")
		faultSeed  = flag.Uint64("fault-seed", 1, "fault-injection schedule seed")
		crashBytes = flag.Int64("fault-crash-bytes", 0,
			"kill -9 the durable state after ~this many log bytes (0 = off; needs -state-dir)")

		obsAddr = flag.String("obs-addr", "",
			"serve live /metrics (Prometheus text), /healthz and pprof on this address (empty = off)")
		flightRecords = flag.Int("flight-records", 512,
			"flight-recorder ring size: last N requests dumped to <state-dir>/flight-<ts>.jsonl on crash (0 = off; needs -state-dir)")
		traceDump = flag.String("trace-dump", "",
			"write the server's span dump (obs JSONL) here on shutdown, mergeable with client dumps via tracemerge")
	)
	flag.Parse()

	cfg := syncnet.ServerConfig{
		BlockSize:      *blockSize,
		CrossUserDedup: *crossUser,
		StateDir:       *stateDir,
	}
	if *compress {
		cfg.Compression = comp.High
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	if *flightRecords > 0 && *stateDir != "" {
		cfg.Flight = obs.NewFlightRecorder(*flightRecords)
	}
	var tracer *obs.Tracer
	if *traceDump != "" {
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
	}

	var reg *obs.Registry
	var obsSrv *obs.HTTPServer
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
		var err error
		obsSrv, err = obs.ListenAndServe(*obsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "syncd: observability listener: %v\n", err)
			os.Exit(1)
		}
		log.Printf("syncd: observability on http://%s/metrics (+ /healthz, /debug/pprof/)", obsSrv.Addr())
	}

	// The durable state replays before the listener opens: a recovering
	// server never acknowledges a request against partial state.
	srv, err := syncnet.OpenServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "syncd: %v\n", err)
		os.Exit(1)
	}
	if *stateDir != "" {
		log.Printf("syncd: durable state in %s (%d log bytes replayed)", *stateDir, srv.StateLogBytes())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "syncd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("syncd: listening on %s (compress=%v cross-user-dedup=%v)",
		l.Addr(), *compress, *crossUser)
	if *faultBytes > 0 || *crashBytes > 0 {
		sched := syncnet.NewFaultScheduler(syncnet.FaultPlan{
			Seed: *faultSeed, MeanDropBytes: *faultBytes, MaxDrops: *faultDrops,
			MeanCrashBytes: *crashBytes,
		})
		sched.SetMetrics(reg)
		if *faultBytes > 0 {
			l = sched.Listen(l)
			log.Printf("syncd: fault injection armed (~%d bytes/conn, max drops %d, seed %d)",
				*faultBytes, *faultDrops, *faultSeed)
		}
		if *crashBytes > 0 {
			if *stateDir == "" {
				fmt.Fprintln(os.Stderr, "syncd: -fault-crash-bytes requires -state-dir")
				os.Exit(1)
			}
			off := sched.ArmCrash(srv)
			log.Printf("syncd: crash point armed at durable-log offset %d (seed %d)", off, *faultSeed)
		}
	}

	// A dead durable state is a dead process: exit non-zero so a
	// supervisor restarts syncd into recovery on the same -state-dir.
	go func() {
		<-srv.CrashedC()
		log.Printf("syncd: durable state crashed; exiting for supervisor restart")
		os.Exit(3)
	}()

	if obsSrv != nil {
		// The server owns the observability endpoint's lifetime: Close
		// (below, on shutdown) drains the handlers, then closes it.
		srv.AttachCloser(obsSrv)
	}

	// SIGINT/SIGTERM close the listener; Serve returns, and the graceful
	// path below drains in-flight sessions and the obs endpoint.
	var shuttingDown atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("syncd: received %v, shutting down", sig)
		shuttingDown.Store(true)
		l.Close()
	}()

	err = srv.Serve(l)
	if err != nil && !shuttingDown.Load() {
		fmt.Fprintf(os.Stderr, "syncd: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "syncd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if tracer != nil {
		if err := writeDump(*traceDump, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "syncd: trace dump: %v\n", err)
			os.Exit(1)
		}
		log.Printf("syncd: span dump written to %s", *traceDump)
	}
	log.Printf("syncd: shutdown complete")
}

// writeDump writes the server tracer's span dump for tracemerge.
func writeDump(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteDump(f, tracer.Dump("syncd")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
