package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testOps is each workload's per-client operation count under test,
// about 1/200 of a real run, and testPopulation what it pre-generates:
// together enough to reach every code path (a second bundle, a dedup
// hit, a delete, both toggled contents, a read of a written file).
var (
	testOps = map[string]int{
		"small-create":   200,
		"bundle-durable": 25,
		"large-modify":   3,
		"large-create":   5,
		"mixed-rw":       40,
		"trace-replay":   1,
	}
	testPopulation = population{
		smallPool:        256,
		largeModifyFiles: 2,
		largeCreateBases: 4,
		largeCreateNames: 2,
		mixedFiles:       200,
		mixedWritable:    16,
		replayScale:      0.002,
	}
)

func testConfig(t *testing.T, workload string, seed int64, traced bool) runConfig {
	return runConfig{
		workload: workload, seed: seed, ops: testOps[workload],
		traced: traced, rounds: 1, outDir: t.TempDir(), pop: testPopulation,
	}
}

func testRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	res, err := runWorkload(testConfig(t, workload, 42, traced))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d: %s", workload, res.Correct, res.Failed, res.Error)
	}
	return res
}

// TestWorkloads runs every workload's end-to-end pass twice with all
// correctness checks on. Every end-to-end metric must be reported and
// non-zero, every client must spend exactly its budget, and the same
// seed must reproduce op counts and user bytes exactly and wire bytes
// (so TUE) to within 0.1 %.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := testRun(t, w.name, false)
			for _, d := range endToEnd {
				if v, ok := a.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v (reported %v); want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(a.Metrics), len(endToEnd))
			}
			var want int64
			for _, b := range w.budgets(testConfig(t, w.name, 42, false)) {
				want += int64(b)
			}
			if a.Attempted != want {
				t.Errorf("attempted %d ops, want %d", a.Attempted, want)
			}
			b := testRun(t, w.name, false)
			if !sameWork(a, b) {
				t.Errorf("same seed, different run:\n a: ops %d files %d user %d wire %d tue %v\n b: ops %d files %d user %d wire %d tue %v",
					a.Attempted, a.Files, a.UserBytes, a.WireBytes, a.Metrics["tue"].Value,
					b.Attempted, b.Files, b.UserBytes, b.WireBytes, b.Metrics["tue"].Value)
			}
		})
	}
}

// The claim each workload's why-sentence makes, pinned: the layers it
// names are the ones its traced pass exercises, and the layers it says
// idle stay at zero.
var (
	layersUsed = map[string][]string{
		"small-create":   {"protocol.msgs_per_op", "syncnet.client.round_trips_per_op", "ledger.payload_share"},
		"bundle-durable": {"wal.fsyncs_per_op", "wal.bytes_per_user_byte", "wal.replay_mb_per_s", "recover_s"},
		"large-modify":   {"delta.sign_mb_per_s", "delta.compute_mb_per_s", "delta.apply_mb_per_s", "delta.literal_share"},
		"large-create":   {"comp.compress_mb_per_s", "comp.decompress_mb_per_s", "comp.ratio", "dedup.hit_share"},
		"mixed-rw":       {"read_p50_ms", "syncnet.list_us_per_call", "syncnet.download_us_per_mb", "ledger.metadata_share"},
		"trace-replay":   {"core.allocs_per_file", "core.tue.dropbox", "chunker.cut_mb_per_s"},
	}
	layersIdle = map[string][]string{
		"small-create": {"wal.fsyncs_per_op", "delta.sign_mb_per_s", "comp.compress_mb_per_s"},
		"large-modify": {"wal.fsyncs_per_op", "comp.compress_mb_per_s"},
		"large-create": {"delta.sign_mb_per_s", "wal.fsyncs_per_op"},
		"trace-replay": {"protocol.msgs_per_op", "syncnet.client.round_trips_per_op"},
	}
)

// TestTracedPass runs every workload's per-layer pass: the ledger
// totals must equal the wire totals (asserted inside the pass), every
// per-layer metric must be reported, the layers the workload is about
// must show work and the idle ones none, the layer replay must fit
// inside the calls it decomposes, and the trace file must be valid JSON.
func TestTracedPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := testRun(t, w.name, true)
			if len(r.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want exactly the %d per-layer ones", len(r.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s missing or in the wrong unit: %+v", d.Name, v)
				}
			}
			for _, name := range layersUsed[w.name] {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
				}
			}
			for _, name := range layersIdle[w.name] {
				if r.Metrics[name].Value != 0 {
					t.Errorf("%s = %v, want 0: the workload should not touch that layer", name, r.Metrics[name].Value)
				}
			}
			// The remainder must not be meaningfully negative. On
			// large-create it is about 1 % of a 34 ms call, and a handful
			// of cold ops beside the other client's compression can push
			// it a few percent below zero, so the tiny test run gets 10 %
			// of the call time.
			call := r.Spans[spanCall]
			callUS := ratio(float64(call.NS)/1e3, float64(call.Count))
			if v := r.Metrics["syncnet.transport_us_per_op"].Value; v < -0.10*callUS {
				t.Errorf("layer replay took longer than the calls it decomposes: transport %v us/op of %v", v, callUS)
			}
			raw, err := os.ReadFile(r.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			roots := 0
			for _, ev := range tr.TraceEvents {
				if ev.Name == spanOp {
					roots++
				}
			}
			if roots == 0 {
				t.Errorf("trace file has %d events and no %s root", len(tr.TraceEvents), spanOp)
			}
		})
	}
}

// TestSeedChangesBytesNotShape: another seed gives other bytes of the
// same sizes, so the same op, file and user-byte counts and still no
// failure.
func TestSeedChangesBytesNotShape(t *testing.T) {
	p, q := genSmallFiles(42, 0, 64), genSmallFiles(43, 0, 64)
	for i := range p.pool {
		if len(p.pool[i]) != len(q.pool[i]) {
			t.Fatalf("file %d: %d bytes on seed 42, %d on seed 43", i, len(p.pool[i]), len(q.pool[i]))
		}
		if bytes.Equal(p.pool[i], q.pool[i]) {
			t.Fatalf("file %d: seeds 42 and 43 generated the same %d bytes", i, len(p.pool[i]))
		}
	}
	a := testRun(t, "small-create", false)
	b, err := runWorkload(testConfig(t, "small-create", 43, false))
	if err != nil || !b.Correct {
		t.Fatalf("seed 43: %v %+v", err, b)
	}
	if a.Attempted != b.Attempted || a.Files != b.Files || a.UserBytes != b.UserBytes {
		t.Errorf("the seed changed the work: ops %d/%d, files %d/%d, user bytes %d/%d",
			a.Attempted, b.Attempted, a.Files, b.Files, a.UserBytes, b.UserBytes)
	}
}

// TestContractFile keeps BENCHMARK.json and the tables in this package
// from drifting apart.
func TestContractFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}
