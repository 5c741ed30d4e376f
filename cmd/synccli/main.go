// Command synccli talks to a running syncd: upload (with automatic
// delta sync on re-upload), download, and delete files.
//
// Usage:
//
//	synccli -addr 127.0.0.1:7777 -user alice put local.txt remote.txt
//	synccli -user alice get remote.txt local-copy.txt
//	synccli -user alice rm remote.txt
//	synccli -retries 5 put big.bin remote.bin     # reconnect + resume
//	synccli -bundle put a.txt b.txt c.txt         # batch in one exchange
//	synccli -trace out.json -report put a.txt b   # spans + summary tree
//
// -trace writes the operation's span tree in Chrome trace_event format
// (load it in chrome://tracing or Perfetto); -report prints an indented
// per-stage summary with wire-byte counts to stderr. -trace-dump writes
// the run's span dump in the obs JSONL format. Whenever it traces, the
// client sends its trace context, so the server's spans carry this
// run's context and merging the two dumps with tracemerge yields one
// cross-process timeline. See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/obs"
	"cloudsync/internal/syncnet"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: synccli [flags] <command> [args]

commands:
  put <local> <remote>   upload a file (delta sync if known)
  get <remote> <local>   download a file
  rm  <remote>           delete a file (after syncing it this session)

with -bundle, put takes any number of local files and uploads them as a
single bundled exchange, stored under their base names:

  synccli -bundle put a.txt b.txt c.txt

flags:
`)
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7777", "syncd address")
		user      = flag.String("user", "alice", "account name")
		device    = flag.String("device", "cli", "device name")
		compress  = flag.Bool("compress", true, "compress uploads (must match syncd)")
		bundle    = flag.Bool("bundle", false, "put: upload all named local files as one bundled exchange")
		retries   = flag.Int("retries", 1, "attempts per operation (reconnect + resume on failure)")
		retryBase = flag.Duration("retry-base", 200*time.Millisecond, "initial reconnect backoff")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event file of this run's spans")
		traceDump = flag.String("trace-dump", "", "write this run's span dump (obs JSONL), mergeable with syncd's via tracemerge")
		report    = flag.Bool("report", false, "print a per-stage span summary to stderr")
	)
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	var tracer *obs.Tracer
	if *traceOut != "" || *traceDump != "" || *report {
		tracer = obs.NewTracer()
	}
	// finish flushes the trace and report before any exit, success or
	// failure — a failed operation's spans are the interesting ones.
	finish := func() {
		if tracer == nil {
			return
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "synccli: %v\n", err)
				return
			}
			if err := obs.WriteMergedChromeTrace(f, obs.Merge(tracer.Dump("synccli"))); err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "synccli: writing trace: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "synccli: trace written to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
		}
		if *traceDump != "" {
			f, err := os.Create(*traceDump)
			if err != nil {
				fmt.Fprintf(os.Stderr, "synccli: %v\n", err)
				return
			}
			if err := obs.WriteDump(f, tracer.Dump("synccli")); err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "synccli: writing span dump: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "synccli: span dump written to %s (merge with tracemerge)\n", *traceDump)
		}
		if *report {
			fmt.Fprint(os.Stderr, tracer.Report())
		}
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "synccli: %v\n", err)
		finish()
		os.Exit(1)
	}

	var opts []syncnet.ClientOption
	if *compress {
		opts = append(opts, syncnet.WithCompression(comp.High))
	}
	if tracer != nil {
		opts = append(opts, syncnet.WithTracer(tracer))
	}
	if *retries > 1 {
		opts = append(opts, syncnet.WithRetry(syncnet.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   *retryBase,
			MaxDelay:    5 * time.Second,
			Seed:        1,
		}))
	}
	c, err := syncnet.Dial("tcp", *addr, *user, *device, opts...)
	if err != nil {
		fail(err)
	}
	defer c.Close()

	switch args[0] {
	case "put":
		if *bundle {
			if len(args) < 2 {
				usage()
			}
			files := make([]syncnet.FileUpload, 0, len(args)-1)
			for _, path := range args[1:] {
				data, err := os.ReadFile(path)
				if err != nil {
					fail(err)
				}
				files = append(files, syncnet.FileUpload{Name: filepath.Base(path), Data: data})
			}
			stats, err := c.UploadBundle(files)
			if err != nil {
				fail(err)
			}
			for i, st := range stats {
				if st.DedupHit {
					fmt.Printf("put %s: bundled, deduplicated (v%d)\n", files[i].Name, st.Version)
				} else {
					fmt.Printf("put %s: bundled (v%d, %d payload bytes)\n",
						files[i].Name, st.Version, st.PayloadBytes)
				}
			}
			if stats[0].Attempts > 1 {
				fmt.Printf("put: bundle took %d attempts\n", stats[0].Attempts)
			}
			finish()
			return
		}
		if len(args) != 3 {
			usage()
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			fail(err)
		}
		stats, err := c.Upload(args[2], data)
		if err != nil {
			fail(err)
		}
		switch {
		case stats.DedupHit:
			// A file small enough to go inline was sent without probing.
			fmt.Printf("put %s: deduplicated (v%d, %d payload bytes)\n", args[2], stats.Version, stats.PayloadBytes)
		case stats.DeltaSync:
			fmt.Printf("put %s: delta sync (v%d, %d payload bytes)\n",
				args[2], stats.Version, stats.PayloadBytes)
		default:
			fmt.Printf("put %s: full upload (v%d, %d payload bytes)\n",
				args[2], stats.Version, stats.PayloadBytes)
		}
		if stats.Attempts > 1 {
			fmt.Printf("put %s: took %d attempts, resumed from payload byte %d\n",
				args[2], stats.Attempts, stats.ResumedFrom)
		}
	case "get":
		if len(args) != 3 {
			usage()
		}
		data, err := c.Download(args[1])
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(args[2], data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("get %s: %d bytes\n", args[1], len(data))
	case "rm":
		if len(args) != 2 {
			usage()
		}
		// Deletion needs the file id; sync it into this session first.
		if _, err := c.Download(args[1]); err != nil {
			fail(err)
		}
		if err := c.Delete(args[1]); err != nil {
			fail(err)
		}
		fmt.Printf("rm %s: deleted (content retained server-side for rollback)\n", args[1])
	default:
		usage()
	}
	finish()
}
