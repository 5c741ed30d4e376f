// Command syncsim runs a single ad-hoc sync simulation from flags: one
// service, one access method, one operation, one network/hardware
// configuration — and prints the resulting traffic and TUE. It is the
// quickest way to poke at a single cell of the paper's design space.
//
// Examples:
//
//	syncsim -service dropbox -op create -size 10485760
//	syncsim -service "google drive" -op append -x 5 -total 1048576
//	syncsim -service box -access mobile -op modify -size 1048576 -bj
//	syncsim -service dropbox -op create -trace out.json -report
//
// -trace writes the simulation's span tree (sync rounds, sessions,
// network activity, all on the virtual clock) as Chrome trace_event
// JSON; -report prints the same tree as indented text. See
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/hardware"
	"cloudsync/internal/metrics"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs"
	"cloudsync/internal/service"
	"cloudsync/internal/simclock"
)

func parseService(s string) (service.Name, error) {
	for _, n := range service.All() {
		if strings.EqualFold(n.String(), s) ||
			strings.EqualFold(strings.ReplaceAll(n.String(), " ", ""), s) {
			return n, nil
		}
	}
	return 0, fmt.Errorf("unknown service %q", s)
}

func parseAccess(s string) (client.AccessMethod, error) {
	switch strings.ToLower(s) {
	case "pc":
		return client.PC, nil
	case "web":
		return client.Web, nil
	case "mobile":
		return client.Mobile, nil
	}
	return 0, fmt.Errorf("unknown access method %q (pc, web, mobile)", s)
}

func parseHardware(s string) (hardware.Profile, error) {
	for _, p := range hardware.All() {
		if strings.EqualFold(p.Name, s) {
			return p, nil
		}
	}
	return hardware.Profile{}, fmt.Errorf("unknown machine %q (M1-M4, B1-B4)", s)
}

func main() {
	var (
		svcName = flag.String("service", "dropbox", "service (google drive, onedrive, dropbox, box, ubuntu one, sugarsync)")
		access  = flag.String("access", "pc", "access method (pc, web, mobile)")
		op      = flag.String("op", "create", "operation (create, modify, delete, download, append, batch)")
		size    = flag.Int64("size", 1<<20, "file size in bytes")
		text    = flag.Bool("text", false, "compressible text content instead of random")
		x       = flag.Float64("x", 1, "append period in seconds (op=append)")
		total   = flag.Int64("total", 1<<20, "total appended bytes (op=append)")
		count   = flag.Int("count", 100, "file count (op=batch)")
		bj      = flag.Bool("bj", false, "run from the Beijing vantage point")
		bps     = flag.Int64("bps", 0, "custom bandwidth in bits/s (overrides -bj)")
		rttMs   = flag.Int("rtt", 0, "custom RTT in milliseconds (with -bps)")
		machine = flag.String("hw", "M1", "client machine (Table 4: M1-M4, B1-B4)")

		traceOut = flag.String("trace", "", "write a Chrome trace_event file of the run's spans (virtual clock)")
		report   = flag.Bool("report", false, "print the span tree as indented text")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "syncsim: %v\n", err)
		os.Exit(1)
	}

	svc, err := parseService(*svcName)
	if err != nil {
		fail(err)
	}
	acc, err := parseAccess(*access)
	if err != nil {
		fail(err)
	}
	hw, err := parseHardware(*machine)
	if err != nil {
		fail(err)
	}
	opts := service.Options{Hardware: hw}
	if *bj {
		opts.Link = netem.Beijing()
	}
	if *bps > 0 {
		opts.Link = netem.Custom(*bps, time.Duration(*rttMs)*time.Millisecond)
	}
	var tracer *obs.Tracer
	if *traceOut != "" || *report {
		// The tracer reads the same virtual clock the setup runs on, so
		// span timestamps are deterministic simulation time.
		clk := simclock.New()
		tracer = obs.NewSimTracer(clk.Now)
		opts.Clock = clk
		opts.Tracer = tracer
	}
	s := service.NewSetup(svc, acc, opts)

	mkBlob := func(seed int64) *content.Blob {
		if *text {
			return content.Text(*size, seed)
		}
		return content.Random(*size, seed)
	}

	var updateSize int64
	switch *op {
	case "create":
		if err := s.FS.Create("file.bin", mkBlob(1)); err != nil {
			fail(err)
		}
		updateSize = *size
	case "modify":
		if err := s.FS.Create("file.bin", mkBlob(1)); err != nil {
			fail(err)
		}
		s.Clock.Run()
		s.Capture.Reset()
		if err := s.FS.ModifyByte("file.bin", *size/2); err != nil {
			fail(err)
		}
		updateSize = 1
	case "delete":
		if err := s.FS.Create("file.bin", mkBlob(1)); err != nil {
			fail(err)
		}
		s.Clock.Run()
		s.Capture.Reset()
		if err := s.FS.Delete("file.bin"); err != nil {
			fail(err)
		}
		updateSize = 1
	case "download":
		if err := s.FS.Create("file.bin", mkBlob(1)); err != nil {
			fail(err)
		}
		s.Clock.Run()
		s.Capture.Reset()
		if err := s.Client.Download("file.bin", nil); err != nil {
			fail(err)
		}
		updateSize = *size
	case "append":
		if err := s.FS.Create("file.bin", content.Random(0, 1)); err != nil {
			fail(err)
		}
		s.Clock.Run()
		s.Capture.Reset()
		step := int64(*x * 1024)
		var scheduled int64
		for i := int64(1); scheduled < *total; i++ {
			n := step
			if scheduled+n > *total {
				n = *total - scheduled
			}
			scheduled += n
			grow := n
			s.Clock.At(time.Duration(float64(i)*(*x)*float64(time.Second)), func() {
				if err := s.FS.Append("file.bin", grow); err != nil {
					fail(err)
				}
			})
		}
		updateSize = *total
	case "batch":
		for i := 0; i < *count; i++ {
			if err := s.FS.Create(fmt.Sprintf("batch/f%04d", i), mkBlob(int64(i+1))); err != nil {
				fail(err)
			}
		}
		updateSize = int64(*count) * *size
	default:
		fail(fmt.Errorf("unknown op %q", *op))
	}

	s.Clock.Run()
	up, down := s.Capture.UpBytes(), s.Capture.DownBytes()
	fmt.Printf("service:   %s (%s)\n", svc, acc)
	fmt.Printf("operation: %s\n", *op)
	fmt.Printf("traffic:   up %s, down %s, total %s (overhead %s)\n",
		metrics.HumanBytes(up), metrics.HumanBytes(down),
		metrics.HumanBytes(up+down), metrics.HumanBytes(s.Capture.OverheadBytes()))
	fmt.Printf("sessions:  %d (virtual time %v)\n", s.Client.Stats().Sessions, s.Clock.Now())
	if updateSize > 0 {
		fmt.Printf("TUE:       %.2f (update size %s)\n",
			float64(up+down)/float64(updateSize), metrics.HumanBytes(updateSize))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := obs.WriteMergedChromeTrace(f, obs.Merge(tracer.Dump("syncsim"))); err == nil {
			err = f.Close()
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "syncsim: trace written to %s (%d spans; open in chrome://tracing or Perfetto)\n",
			*traceOut, len(tracer.Spans()))
	}
	if *report {
		fmt.Print(tracer.Report())
	}
}
