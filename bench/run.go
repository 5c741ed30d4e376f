package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/syncnet"
)

// result is one workload run, as written to <out>/<workload>.<pass>.json
// and folded into results.json by the all-workloads mode.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Pass      string           `json:"pass"` // "e2e" or "layers"
	Correct   bool             `json:"correct"`
	Error     string           `json:"error,omitempty"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Files     int64            `json:"files"`
	UserBytes int64            `json:"user_bytes"`
	WireBytes int64            `json:"wire_bytes"`
	MeasuredS float64          `json:"measured_s"`
	Metrics   map[string]value `json:"metrics"`
	// Rounds is the run-internal spread behind the median-round metrics.
	Rounds map[string]spread `json:"rounds,omitempty"`
	// Spans is the traced pass's per-span-name totals; TraceFile the
	// Chrome trace holding the first keepOps operations of each client.
	Spans     map[string]layerAgg `json:"spans,omitempty"`
	TraceFile string              `json:"trace_file,omitempty"`
}

// passName names the two passes in file names and results.
func passName(traced bool) string {
	if traced {
		return "layers"
	}
	return "e2e"
}

// runWorkload measures one workload: cfg.rounds replicas, each set up
// afresh, measured, verified and torn down, reduced to the median
// round. A failed check or operation is reported in the result (Correct
// false), not as an error; an error means the benchmark itself could
// not run.
func runWorkload(cfg runConfig) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	pinRuntime()
	res := &result{Workload: w.name, Seed: cfg.seed, Pass: passName(cfg.traced), Metrics: make(map[string]value)}
	window := time.Duration(cfg.seconds * float64(time.Second) / numRounds)
	if cfg.ops > 0 {
		window = 0 // exact op counts: the clock ends nothing
	}
	budgets := w.budgets(cfg)

	var sum totals
	var checkErr error
	var setups, rates, p50s, peaks []float64
	for r := range cfg.rounds {
		resetPeakRSS() // every replica starts from a returned heap, as the first did
		t0 := time.Now()
		inst, err := w.setup(cfg, r)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		next := make([]int, w.clients)

		var t totals
		if cfg.traced {
			var out map[string]float64
			out, t, err = tracedPass(w, inst, cfg, window, budgets, next, res)
			for _, d := range perLayer {
				res.Metrics[d.Name] = value{out[d.Name], d.Unit}
			}
		} else {
			t = measure(inst, window, budgets, next, nil)
			rate, p50 := roundStats(t.samples, int64(t.wall), w.latencyOf)
			rates, p50s = append(rates, rate), append(p50s, p50)
			err = inst.verify()
		}
		checkErr = errors.Join(checkErr, err, inst.close())
		sum.add(t)
		peaks = append(peaks, peakRSSMB())
	}

	if !cfg.traced {
		res.Rounds = map[string]spread{
			"files_per_s": spreadOf(rates), "op_p50_ms": spreadOf(p50s),
			"peak_rss_mb": spreadOf(peaks), "setup_s": spreadOf(setups),
		}
		for name, s := range res.Rounds {
			res.Metrics[name] = value{s.Median, unitOf(endToEnd, name)}
		}
		res.Metrics["tue"] = value{ratio(float64(sum.wireBytes), float64(sum.userBytes)), unitOf(endToEnd, "tue")}
	}
	res.Attempted, res.Failed, res.Files = sum.attempted, sum.failed, sum.files
	res.UserBytes, res.WireBytes, res.MeasuredS = sum.userBytes, sum.wireBytes, sum.wall.Seconds()
	if err := errors.Join(sum.firstErr, checkErr); err != nil {
		res.Error = err.Error()
	}
	res.Correct = res.Error == "" && sum.failed == 0 && sum.attempted > 0
	return res, nil
}

// tracedPass is the per-layer pass: a quarter of the window untraced
// (the base trace_overhead_pct compares against), the rest with a
// bench.op span around every operation and the layer replay after it.
func tracedPass(w *workload, inst instance, cfg runConfig, window time.Duration, budgets []int, next []int, res *result) (map[string]float64, totals, error) {
	quarter, rest := make([]int, len(budgets)), make([]int, len(budgets))
	for c, b := range budgets {
		quarter[c] = (b + 3) / 4
		rest[c] = max(1, b-quarter[c])
	}
	a := measure(inst, window/4, quarter, next, nil)

	epoch := time.Now()
	rps := make([]*replayer, w.clients)
	for c := range rps {
		rps[c] = newReplayer(epoch, c, filepath.Join(cfg.outDir, fmt.Sprintf("replay-wal-%s-%d", w.name, c)))
	}
	var lv *live
	if h, ok := inst.(interface{ hooks() *live }); ok {
		lv = h.hooks()
	}
	before := readHooks(lv)
	b := measure(inst, window-window/4, rest, next, rps)
	after := readHooks(lv)

	out := make(map[string]float64)
	recs := make([]*recorder, len(rps))
	var closeErr error
	for c, rp := range rps {
		recs[c] = rp.recorder
		closeErr = errors.Join(closeErr, rp.close())
	}
	res.Spans = mergeAggs(recs)
	layerFigures(out, res.Spans, rps, &b)
	hookFigures(out, before, after, &b)
	if fa, fb := rate(&a), rate(&b); fa > 0 {
		out["trace_overhead_pct"] = 100 * (fa - fb) / fa
	}
	all := totals{samples: append(slices.Clone(a.samples), b.samples...)}
	lat := make([]int64, 0, len(all.samples))
	for _, s := range all.samples {
		if w.latencyOf(s) {
			lat = append(lat, s.lat)
		}
	}
	slices.Sort(lat)
	if v, ok := quantile(lat, 0.99); ok {
		out["op_p99_ms"] = float64(v) / 1e6
	}
	out["live_heap_mb"] = liveHeapMB()

	checkErr := errors.Join(closeErr, inst.verify())
	inst.layers(out, &all)

	res.TraceFile = filepath.Join(cfg.outDir, w.name+".trace.json")
	if err := writeChromeTrace(res.TraceFile, recs); err != nil {
		checkErr = errors.Join(checkErr, err)
	}
	if a.firstErr != nil && b.firstErr == nil {
		b.firstErr = a.firstErr
	}
	b.attempted, b.failed = a.attempted+b.attempted, a.failed+b.failed
	return out, b, checkErr
}

func rate(t *totals) float64 { return ratio(float64(t.files), t.wall.Seconds()) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// layerFigures derives the replay-based per-layer metrics from the span
// totals of the traced phase.
func layerFigures(out map[string]float64, spans map[string]layerAgg, rps []*replayer, b *totals) {
	ops := float64(b.attempted - b.failed)
	if ops == 0 {
		return
	}
	var msgs, literal, target, compIn, compOut int64
	for _, rp := range rps {
		msgs += rp.msgs
		literal, target = literal+rp.literalBytes, target+rp.targetBytes
		compIn, compOut = compIn+rp.compIn, compOut+rp.compOut
	}
	mbPerS := func(name string) float64 {
		a := spans[name]
		return ratio(float64(a.Bytes)/(1<<20), float64(a.NS)/1e9)
	}
	out["protocol.codec_ns_per_msg"] = ratio(float64(spans["layer.protocol.codec"].NS), float64(msgs))
	out["protocol.msgs_per_op"] = float64(msgs) / ops
	out["delta.sign_mb_per_s"] = mbPerS("layer.delta.Sign")
	out["delta.compute_mb_per_s"] = mbPerS("layer.delta.Compute")
	out["delta.apply_mb_per_s"] = mbPerS("layer.delta.Apply")
	out["delta.literal_share"] = ratio(float64(literal), float64(target))
	out["md5.sum_us_per_op"] = float64(spans["layer.md5.Sum"].NS) / 1e3 / ops
	out["comp.compress_mb_per_s"] = mbPerS("layer.comp.Compress")
	out["comp.decompress_mb_per_s"] = mbPerS("layer.comp.Decompress")
	out["comp.ratio"] = ratio(float64(compIn), float64(compOut))
	lk := spans["layer.dedup.Index.Lookup"]
	out["dedup.lookup_ns"] = ratio(float64(lk.NS), float64(lk.Count))
	out["chunker.cut_mb_per_s"] = mbPerS("layer.chunker.CutPoints")
	ls, dl := spans[spanCallList], spans[spanCallDownload]
	out["syncnet.list_us_per_call"] = ratio(float64(ls.NS)/1e3, float64(ls.Count))
	out["syncnet.download_us_per_mb"] = ratio(float64(dl.NS)/1e3, float64(dl.Bytes)/(1<<20))

	// What the real calls took beyond the replayed layer work: sockets,
	// scheduling and dispatch. Only meaningful where a call crosses
	// syncnet; trace-replay's op is the simulator itself.
	var callNS, layerNS int64
	for name, a := range spans {
		switch {
		case strings.HasPrefix(name, spanCall):
			callNS += a.NS
		case strings.HasPrefix(name, "layer.") && name != "layer.chunker.CutPoints":
			layerNS += a.NS
		}
	}
	if layerNS > 0 {
		out["syncnet.transport_us_per_op"] = float64(callNS-layerNS) / 1e3 / ops
	}
}

// hookReadings is a point-in-time reading of the counters the program
// already exposes as public configuration: Server.Stats, the registry's
// histogram Sum/Count and counters, and the server-side ledger.
type hookReadings struct {
	ok                     bool
	stats                  syncnet.ServerStats
	ledger                 ledger.Snapshot
	requestUS, inboundUS   int64
	replyWaits             int64
	fsyncs, fsyncUS        int64
	walBytes, walCompacted int64
}

func readHooks(l *live) hookReadings {
	if l == nil || l.reg == nil {
		return hookReadings{}
	}
	h := hookReadings{ok: true, stats: l.srv.Stats(), ledger: l.srvLed.Snapshot()}
	h.requestUS, _ = l.hist("syncd_request_duration_us")
	h.inboundUS, _ = l.hist("syncd_inbound_queue_wait_us")
	_, h.replyWaits = l.hist("syncnet_client_reply_wait_us")
	h.fsyncUS, _ = l.hist("syncd_wal_fsync_duration_us")
	h.fsyncs = l.reg.Counter("syncd_wal_fsyncs_total", "").Value()
	h.walBytes = l.reg.Counter("syncd_wal_bytes_appended_total", "").Value()
	h.walCompacted = l.reg.Counter("syncd_wal_compactions_total", "").Value()
	return h
}

// hookFigures derives the counter-based per-layer metrics from the
// readings taken around the traced phase.
func hookFigures(out map[string]float64, before, after hookReadings, b *totals) {
	ops := float64(b.attempted - b.failed)
	if !after.ok || ops == 0 {
		return
	}
	out["syncnet.client.round_trips_per_op"] = float64(after.replyWaits-before.replyWaits) / ops
	out["syncnet.server.request_us_per_op"] = float64(after.requestUS-before.requestUS) / ops
	out["syncnet.server.inbound_wait_us_per_op"] = float64(after.inboundUS-before.inboundUS) / ops
	out["wal.fsyncs_per_op"] = float64(after.fsyncs-before.fsyncs) / ops
	out["wal.fsync_us_per_op"] = float64(after.fsyncUS-before.fsyncUS) / ops
	out["wal.bytes_per_user_byte"] = ratio(float64(after.walBytes-before.walBytes), float64(b.userBytes))
	out["wal.compactions"] = float64(after.walCompacted - before.walCompacted)
	out["dedup.hit_share"] = ratio(float64(after.stats.DedupSkips-before.stats.DedupSkips),
		float64(after.stats.Uploads-before.stats.Uploads))
	var total int64
	for _, c := range ledger.Causes() {
		total += after.ledger.Get(c) - before.ledger.Get(c)
	}
	for _, c := range ledger.Causes() {
		out["ledger."+c.String()+"_share"] = ratio(float64(after.ledger.Get(c)-before.ledger.Get(c)), float64(total))
	}
}
