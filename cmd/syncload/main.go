// Command syncload is an open-loop load generator for the live sync
// service: it drives many concurrent trace-derived accounts against a
// syncd server over real TCP at a fixed offered arrival rate, and
// reports sustained throughput, latency quantiles (p50/p99/p999,
// measured from each operation's *scheduled* arrival, so queueing
// delay under overload is visible), and peak RSS.
//
// Open loop means the arrival schedule never slows down to match the
// server: operations arrive at -rate regardless of completions, each
// assigned round-robin to an account whose bounded queue absorbs
// bursts — a full queue drops the arrival (counted, not retried),
// exactly how a saturated service sheds load. This is the methodology
// that exposes the lockstep protocol's weakness: a closed loop would
// let one-round-trip-per-file pacing hide behind slower offered load.
//
// Each account uploads batches of small files with sizes drawn from
// the paper-calibrated trace (internal/trace), in one of two modes:
//
//	lockstep: one Upload per file, each stalling on its reply
//	bundle:   UploadBundle, the whole batch in one framed exchange
//
// Without -addr it hosts the server in-process on a loopback TCP
// listener; -check then also verifies the traffic-attribution ledgers
// balance exactly against the metered wire bytes on both sides and
// exits non-zero on imbalance or any failed operation. -state-dir runs
// that in-process server durably (a per-mode subdirectory each), so
// the WAL group-commit phase shows up in the decomposition below.
//
// Each mode also prints a per-phase latency decomposition — client
// send-queue wait, wire round-trip, server inbound-queue wait, request
// handling, apply, and WAL fsync — from the same histograms syncd
// serves on /metrics, and folds the phase quantiles into the report's
// extras. With -trace-out, every account runs a tracer with cross-
// process context propagation, the -trace-top slowest operations per
// mode are kept (client spans per operation; the in-process server's
// spans are filtered to the kept operations), and the merged timeline
// is written as one Chrome trace_event file. The server-side tracer
// retains its spans for the whole mode, so -trace-out trades memory
// for visibility; the per-operation client tracers are reset after
// every operation.
//
// Output is a report in benchjson's -raw schema (one entry per mode):
// make bench-load writes BENCH_load.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/syncnet"
	"cloudsync/internal/trace"
)

func main() {
	os.Exit(run())
}

type config struct {
	addr     string
	accounts int
	rate     float64
	duration time.Duration
	modes    []string
	batch    int
	maxSize  int64
	seed     int64
	jsonPath string
	check    bool
	quiet    bool
	stateDir string
	traceOut string
	traceTop int
}

func run() int {
	var cfg config
	var modes string
	flag.StringVar(&cfg.addr, "addr", "", "syncd address to load (empty = host an in-process server on loopback)")
	flag.IntVar(&cfg.accounts, "accounts", 1000, "concurrent accounts, one connection each")
	flag.Float64Var(&cfg.rate, "rate", 2000, "offered arrival rate in operations/second (one operation = one batch)")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "arrival window per mode")
	flag.StringVar(&modes, "modes", "lockstep,bundle", "comma-separated modes to run: lockstep, bundle")
	flag.IntVar(&cfg.batch, "batch", 8, "files per operation")
	flag.Int64Var(&cfg.maxSize, "max-size", 32<<10, "cap on trace-derived file sizes in bytes")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for trace sizes and file content")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the benchjson raw report here (empty = stdout)")
	flag.BoolVar(&cfg.check, "check", false, "verify ledger exactness (in-process server only) and exit non-zero on imbalance or failed operations")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress per-mode progress lines and phase tables")
	flag.StringVar(&cfg.stateDir, "state-dir", "", "run the in-process server durably, one subdirectory per mode (empty = in-RAM; needs in-process server)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write a merged client+server Chrome trace of the slowest operations here")
	flag.IntVar(&cfg.traceTop, "trace-top", 8, "operations to keep per mode for -trace-out, slowest first")
	flag.Parse()

	for _, m := range strings.Split(modes, ",") {
		m = strings.TrimSpace(m)
		switch m {
		case "lockstep", "bundle":
			cfg.modes = append(cfg.modes, m)
		case "":
		default:
			fmt.Fprintf(os.Stderr, "syncload: unknown mode %q\n", m)
			return 2
		}
	}
	if len(cfg.modes) == 0 || cfg.accounts < 1 || cfg.batch < 1 || cfg.rate <= 0 {
		fmt.Fprintln(os.Stderr, "syncload: need at least one mode, one account, one file per batch, and a positive rate")
		return 2
	}
	if cfg.check && cfg.addr != "" {
		fmt.Fprintln(os.Stderr, "syncload: -check needs the in-process server (omit -addr)")
		return 2
	}
	if cfg.stateDir != "" && cfg.addr != "" {
		fmt.Fprintln(os.Stderr, "syncload: -state-dir configures the in-process server (omit -addr)")
		return 2
	}
	if cfg.traceOut != "" && cfg.traceTop < 1 {
		fmt.Fprintln(os.Stderr, "syncload: -trace-top must be at least 1")
		return 2
	}

	sizes := traceSizes(cfg.seed, cfg.maxSize)
	rep := rawReport{Note: fmt.Sprintf(
		"syncload: %d accounts, %.0f ops/s offered for %v, %d files/op, trace-derived sizes ≤ %d B (seed %d); latency measured from scheduled arrival",
		cfg.accounts, cfg.rate, cfg.duration, cfg.batch, cfg.maxSize, cfg.seed)}

	failed := false
	var traceDumps []obs.TraceDump
	var traceKept int
	for _, mode := range cfg.modes {
		res, col, err := runMode(cfg, mode, sizes, obs.NewRegistry())
		if err != nil {
			fmt.Fprintf(os.Stderr, "syncload: mode %s: %v\n", mode, err)
			return 1
		}
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, "syncload: %-9s %8.0f files/s  p50 %6dµs  p99 %6dµs  p999 %6dµs  ops %d  dropped %d  failed %d\n",
				mode, res.Extra["reqs-per-sec"], int64(res.Extra["p50-us"]), int64(res.Extra["p99-us"]),
				int64(res.Extra["p999-us"]), int64(res.Extra["ops"]), int64(res.Extra["dropped-ops"]), int64(res.Extra["failed-ops"]))
		}
		if col != nil {
			traceDumps = append(traceDumps, col.dumps...)
			traceKept += col.kept
		}
		if cfg.check && res.Extra["failed-ops"] > 0 {
			fmt.Fprintf(os.Stderr, "syncload: mode %s: %d failed operations\n", mode, int64(res.Extra["failed-ops"]))
			failed = true
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if cfg.traceOut != "" {
		if err := writeMergedTrace(cfg.traceOut, traceDumps, traceKept); err != nil {
			fmt.Fprintf(os.Stderr, "syncload: %v\n", err)
			return 1
		}
	}

	out := os.Stdout
	if cfg.jsonPath != "" {
		f, err := os.Create(cfg.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "syncload: %v\n", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "syncload: %v\n", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// rawReport mirrors benchjson's -raw schema, so BENCH_load.json reads
// like the other committed baselines.
type rawReport struct {
	Note       string     `json:"note"`
	Benchmarks []rawEntry `json:"benchmarks"`
}

type rawEntry struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// traceSizes draws the small-file size population from the calibrated
// trace: every file under the cap that a scaled-down generation
// produces. The cap keeps the generator exercising the per-request
// path (the paper's problem case) rather than bulk bandwidth.
func traceSizes(seed, maxSize int64) []int64 {
	recs := trace.Generate(trace.GenConfig{Seed: seed, Scale: 0.02})
	sizes := make([]int64, 0, len(recs))
	for _, r := range recs {
		if r.OriginalSize <= maxSize {
			sizes = append(sizes, r.OriginalSize)
		}
	}
	if len(sizes) == 0 {
		sizes = []int64{4096}
	}
	return sizes
}

// arrival is one scheduled operation.
type arrival struct {
	at  time.Time // scheduled arrival, the latency epoch
	seq int64     // global operation number (names files uniquely)
}

type account struct {
	client *syncnet.Client
	queue  chan arrival
	tracer *obs.Tracer
}

// runMode drives one mode's arrival window, registering the server's,
// the clients' and its own instruments on reg (a fresh registry per
// mode, so the phase quantiles are that mode's alone).
func runMode(cfg config, mode string, sizes []int64, reg *obs.Registry) (rawEntry, *traceCollector, error) {
	resetPeakRSS()
	var col *traceCollector
	var srvTracer *obs.Tracer
	if cfg.traceOut != "" {
		col = &traceCollector{top: cfg.traceTop, mode: mode}
		srvTracer = obs.NewTracer()
	}

	addr := cfg.addr
	var srv *syncnet.Server
	var srvLedger *ledger.Ledger
	if addr == "" {
		if cfg.check {
			srvLedger = ledger.New()
		}
		scfg := syncnet.ServerConfig{
			Compression: comp.None,
			Ledger:      srvLedger,
			Metrics:     reg,
			Tracer:      srvTracer,
		}
		if cfg.stateDir != "" {
			scfg.StateDir = filepath.Join(cfg.stateDir, mode)
			if err := os.MkdirAll(scfg.StateDir, 0o755); err != nil {
				return rawEntry{}, nil, err
			}
		}
		var err error
		srv, err = syncnet.OpenServer(scfg)
		if err != nil {
			return rawEntry{}, nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rawEntry{}, nil, err
		}
		go srv.Serve(l)
		defer srv.Close()
		addr = l.Addr().String()
	}

	latencyUS := reg.Histogram("syncload_latency_us", "Operation latency from scheduled arrival, microseconds.")
	queueWaitUS := reg.Histogram("syncload_queue_wait_us", "Microseconds an operation waited in its account's send queue before work started.")
	serviceUS := reg.Histogram("syncload_service_us", "Microseconds from an operation leaving its queue to its last acknowledgement.")
	var dropped, failedOps, files atomic.Int64

	cliLedger := ledger.New()
	accounts := make([]*account, cfg.accounts)
	var cliOpts []syncnet.ClientOption
	if cfg.check {
		cliOpts = append(cliOpts, syncnet.WithLedger(cliLedger))
	}
	cliOpts = append(cliOpts, syncnet.WithClientMetrics(reg))
	for i := range accounts {
		opts := cliOpts
		var tr *obs.Tracer
		if col != nil {
			tr = obs.NewTracer()
			opts = append(opts[:len(opts):len(opts)],
				syncnet.WithTracer(tr), syncnet.WithTraceContext())
		}
		c, err := syncnet.Dial("tcp", addr, fmt.Sprintf("load-%s-%04d", mode, i), "syncload", opts...)
		if err != nil {
			return rawEntry{}, nil, fmt.Errorf("dial account %d: %w", i, err)
		}
		accounts[i] = &account{client: c, queue: make(chan arrival, 4), tracer: tr}
	}

	var wg sync.WaitGroup
	for i, a := range accounts {
		wg.Add(1)
		go func(acct int, a *account) {
			defer wg.Done()
			// Deterministic per-account content source; data is
			// regenerated per file so bundle entries never share backing.
			rng := newXorshift(uint64(cfg.seed) ^ uint64(acct)*0x9E3779B97F4A7C15 ^ hashMode(mode))
			batch := make([]syncnet.FileUpload, cfg.batch)
			for arr := range a.queue {
				started := time.Now()
				queueWaitUS.Observe(started.Sub(arr.at).Microseconds())
				for j := range batch {
					size := sizes[int(uint64(arr.seq)*uint64(cfg.batch)+uint64(j))%len(sizes)]
					batch[j] = syncnet.FileUpload{
						Name: "op" + strconv.FormatInt(arr.seq, 36) + "/f" + strconv.Itoa(j),
						Data: rng.fill(make([]byte, size)),
					}
				}
				var err error
				switch mode {
				case "lockstep":
					for _, f := range batch {
						if _, err = a.client.Upload(f.Name, f.Data); err != nil {
							break
						}
					}
				case "bundle":
					_, err = a.client.UploadBundle(batch)
				}
				// The per-operation tracer is drained (and reset) whether
				// the operation succeeded or not, so tracing never grows
				// client memory with the run; only successes compete for
				// the slowest-operation reservoir.
				var spans []obs.SpanData
				if a.tracer != nil {
					spans = a.tracer.Spans()
					a.tracer.Reset()
				}
				if err != nil {
					failedOps.Add(1)
					continue
				}
				files.Add(int64(cfg.batch))
				lat := time.Since(arr.at)
				latencyUS.Observe(lat.Microseconds())
				serviceUS.Observe(time.Since(started).Microseconds())
				if col != nil {
					col.offer(lat.Microseconds(), obs.TraceDump{
						Process:     "syncload/" + mode,
						TraceID:     a.tracer.TraceID(),
						EpochUnixNs: a.tracer.EpochUnixNano(),
						Spans:       spans,
					})
				}
			}
		}(i, a)
	}

	// Open-loop pacer: arrivals fire on the fixed schedule and are
	// never deferred — a busy account's full queue sheds the operation
	// instead of slowing the offered load.
	start := time.Now()
	interval := time.Duration(float64(time.Second) / cfg.rate)
	var seq int64
	for {
		at := start.Add(time.Duration(seq) * interval)
		if at.Sub(start) >= cfg.duration {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		a := accounts[seq%int64(len(accounts))]
		select {
		case a.queue <- arrival{at: at, seq: seq}:
		default:
			dropped.Add(1)
		}
		seq++
	}
	for _, a := range accounts {
		close(a.queue)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var cliIn, cliOut int64
	for _, a := range accounts {
		a.client.Close()
		in, out := a.client.WireTotals()
		cliIn += in
		cliOut += out
	}

	entry := rawEntry{
		Name:    "SyncLoad/mode=" + mode,
		NsPerOp: meanNs(latencyUS),
		Extra: map[string]float64{
			"reqs-per-sec":   float64(files.Load()) / elapsed.Seconds(),
			"ops-per-sec":    float64(latencyUS.Count()) / elapsed.Seconds(),
			"ops":            float64(latencyUS.Count()),
			"p50-us":         float64(latencyUS.Quantile(0.50)),
			"p99-us":         float64(latencyUS.Quantile(0.99)),
			"p999-us":        float64(latencyUS.Quantile(0.999)),
			"dropped-ops":    float64(dropped.Load()),
			"failed-ops":     float64(failedOps.Load()),
			"peak-rss-bytes": float64(readPeakRSS()),
		},
	}
	for _, ph := range phaseOrder(reg) {
		if ph.h.Count() == 0 {
			continue
		}
		entry.Extra[ph.key+"-p50-us"] = float64(ph.h.Quantile(0.50))
		entry.Extra[ph.key+"-p99-us"] = float64(ph.h.Quantile(0.99))
	}
	if !cfg.quiet {
		printPhaseTable(os.Stderr, mode, reg)
	}
	if col != nil {
		col.finish(obs.TraceDump{
			Process:     "syncd/" + mode,
			TraceID:     srvTracer.TraceID(),
			EpochUnixNs: srvTracer.EpochUnixNano(),
			Spans:       srvTracer.Spans(),
		})
	}

	if cfg.check {
		if err := srv.Close(); err != nil {
			return entry, col, fmt.Errorf("server close: %w", err)
		}
		st := srv.Stats()
		if got, want := srvLedger.Total(), st.BytesReceived+st.BytesSent; got != want {
			return entry, col, fmt.Errorf("server ledger total %d ≠ wire total %d (off by %+d)", got, want, got-want)
		}
		if got, want := cliLedger.Total(), cliIn+cliOut; got != want {
			return entry, col, fmt.Errorf("client ledger total %d ≠ wire total %d (off by %+d)", got, want, got-want)
		}
	}
	return entry, col, nil
}

// phase pairs a decomposition row with its Extra key and display label.
type phase struct {
	key   string
	label string
	h     *obs.Histogram
}

// phaseOrder lists the latency decomposition in causal order: where an
// operation's time goes from its scheduled arrival to the last ACK.
// Rows whose histogram never observed anything (e.g. server-side phases
// when loading a remote -addr, or the WAL phase without -state-dir) are
// skipped by the callers.
func phaseOrder(reg *obs.Registry) []phase {
	return []phase{
		{"queue-wait", "client send-queue wait", reg.Histogram("syncload_queue_wait_us", "")},
		{"reply-wait", "client wire round-trip wait", reg.Histogram("syncnet_client_reply_wait_us", "")},
		{"inbound-wait", "server inbound-queue wait", reg.Histogram("syncd_inbound_queue_wait_us", "")},
		{"request", "server request handling", reg.Histogram("syncd_request_duration_us", "")},
		{"apply", "server apply (in-memory)", reg.Histogram("syncd_apply_us", "")},
		{"fsync", "server WAL group commit", reg.Histogram("syncd_wal_fsync_duration_us", "")},
		{"service", "operation service (whole batch)", reg.Histogram("syncload_service_us", "")},
	}
}

// printPhaseTable renders the per-phase p50/p99 decomposition for one
// mode. Quantiles come from power-of-two-bucketed histograms, so two
// values within obs.QuantileStepTolerancePct of each other are the same
// bucket — read the table for orders of magnitude, not exact ratios.
func printPhaseTable(w io.Writer, mode string, reg *obs.Registry) {
	fmt.Fprintf(w, "syncload: %s phase decomposition (µs):\n", mode)
	fmt.Fprintf(w, "  %-32s %10s %10s %10s\n", "phase", "count", "p50", "p99")
	for _, ph := range phaseOrder(reg) {
		if ph.h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-32s %10d %10d %10d\n",
			ph.label, ph.h.Count(), ph.h.Quantile(0.50), ph.h.Quantile(0.99))
	}
}

// opTrace is one reservoir entry: an operation's latency and its span
// dump (the spans its account tracer recorded for just that op).
type opTrace struct {
	latUS int64
	dump  obs.TraceDump
}

// traceCollector keeps the -trace-top slowest successful operations of
// one mode and, on finish, joins them with the server spans they caused
// into mergeable per-process dumps.
type traceCollector struct {
	mu    sync.Mutex
	top   int
	mode  string
	ops   []opTrace
	kept  int
	dumps []obs.TraceDump
}

// offer competes one finished operation for the reservoir: below
// capacity it is kept, above it the current minimum-latency entry is
// evicted if this one was slower.
func (tc *traceCollector) offer(latUS int64, d obs.TraceDump) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.ops) < tc.top {
		tc.ops = append(tc.ops, opTrace{latUS, d})
		return
	}
	min := 0
	for i := range tc.ops {
		if tc.ops[i].latUS < tc.ops[min].latUS {
			min = i
		}
	}
	if latUS > tc.ops[min].latUS {
		tc.ops[min] = opTrace{latUS, d}
	}
}

// finish resolves the reservoir against the server's span dump: kept
// operations from the same account fold into one client dump (their
// tracer — hence TraceID and epoch — is shared), and the server dump is
// filtered to the spans a kept operation caused (a span carrying a kept
// remote context, plus its local descendants; the server tracer assigns
// child IDs after parents, so one in-order pass closes the set).
func (tc *traceCollector) finish(srvDump obs.TraceDump) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.kept = len(tc.ops)

	groups := make(map[obs.TraceID]int)
	kept := make(map[obs.TraceID]map[uint64]bool)
	for _, op := range tc.ops {
		id := op.dump.TraceID
		if gi, ok := groups[id]; ok {
			tc.dumps[gi].Spans = append(tc.dumps[gi].Spans, op.dump.Spans...)
		} else {
			groups[id] = len(tc.dumps)
			tc.dumps = append(tc.dumps, op.dump)
		}
		if kept[id] == nil {
			kept[id] = make(map[uint64]bool)
		}
		for _, s := range op.dump.Spans {
			kept[id][s.ID] = true
		}
	}

	included := make(map[uint64]bool)
	var spans []obs.SpanData
	for _, s := range srvDump.Spans {
		ok := false
		switch {
		case s.RemoteParent != 0:
			ok = kept[s.RemoteTrace][s.RemoteParent]
		case s.Parent != 0:
			ok = included[s.Parent]
		}
		if ok {
			included[s.ID] = true
			spans = append(spans, s)
		}
	}
	if len(spans) > 0 {
		srvDump.Spans = spans
		tc.dumps = append(tc.dumps, srvDump)
	}
	tc.ops = nil
}

// writeMergedTrace merges every collected dump onto one timeline (the
// tracers share real wall clocks, so modes appear in sequence) and
// writes the Chrome trace_event file.
func writeMergedTrace(path string, dumps []obs.TraceDump, kept int) error {
	merged := obs.Merge(dumps...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteMergedChromeTrace(f, merged); err == nil {
		err = f.Close()
	}
	if err != nil {
		return fmt.Errorf("writing merged trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "syncload: merged trace of the %d slowest ops (%d spans) written to %s (open in chrome://tracing or Perfetto)\n",
		kept, len(merged), path)
	return nil
}

func meanNs(h *obs.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count()) * 1e3 // µs → ns
}

func hashMode(mode string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(mode); i++ {
		h = (h ^ uint64(mode[i])) * 1099511628211
	}
	return h
}

// xorshift is a tiny deterministic filler for file content; quality
// does not matter, distinctness and speed do.
type xorshift uint64

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 1
	}
	x := xorshift(seed)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) fill(p []byte) []byte {
	for i := 0; i+8 <= len(p); i += 8 {
		v := x.next()
		p[i] = byte(v)
		p[i+1] = byte(v >> 8)
		p[i+2] = byte(v >> 16)
		p[i+3] = byte(v >> 24)
		p[i+4] = byte(v >> 32)
		p[i+5] = byte(v >> 40)
		p[i+6] = byte(v >> 48)
		p[i+7] = byte(v >> 56)
	}
	for i := len(p) &^ 7; i < len(p); i++ {
		p[i] = byte(x.next())
	}
	return p
}

// resetPeakRSS drops the kernel's resident-set high-water mark to the
// current RSS (clear_refs code 5), so each mode's peak-rss-bytes
// reflects that mode rather than the process-wide maximum so far.
// Best-effort: on kernels without the knob the peaks are cumulative.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readPeakRSS reports the process's peak resident set (VmHWM) in
// bytes, 0 where /proc is unavailable.
func readPeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
