package main

import "strings"

// endToEnd is what a user of the system sees, with the share of the
// parent's median by which each may worsen before a change is rejected.
// Every workload reports every one of them, and none is ever 0.
var endToEnd = []metricDef{
	// user files synced (created, modified, downloaded or replayed) per
	// second of a round's wall time; median of numRounds rounds
	{Name: "files_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	// median latency of one client call: Upload, UploadBundle of 8, on
	// mixed-rw the writer's Upload, on trace-replay one ScaleReplay;
	// median round
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	// wire bytes, both directions, per byte the user created, edited or
	// fetched — the paper's Traffic Usage Efficiency
	{Name: "tue", Unit: "ratio", Better: "lower", Bound: 0.005},
	// VmHWM of the workload's process, reset before each round; median
	// round
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// input generation + server start + dial + pre-population, once per
	// round; median round
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the traced pass's table. Units are compound on purpose
// (us/op, not us): a layer a workload does not exercise reports 0, and
// 0 must read as "no such work per op", not as a measured time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// demoted from end to end: defined on some workloads only
		{Name: "op_p99_ms", Unit: "ms/op", Better: "lower"},      // 0 unless >= 10 samples lie beyond the 99th percentile
		{Name: "read_p50_ms", Unit: "ms/round", Better: "lower"}, // mixed-rw: one List+Download round
		{Name: "recover_s", Unit: "s/reopen", Better: "lower"},   // bundle-durable: Close -> OpenServer(same StateDir)

		{Name: "protocol.codec_ns_per_msg", Unit: "ns/msg", Better: "lower"},
		{Name: "protocol.msgs_per_op", Unit: "count/op", Better: "lower"},
		{Name: "syncnet.client.round_trips_per_op", Unit: "count/op", Better: "lower"},
		{Name: "syncnet.server.request_us_per_op", Unit: "us/op", Better: "lower"},
		{Name: "syncnet.server.inbound_wait_us_per_op", Unit: "us/op", Better: "lower"},
		{Name: "syncnet.transport_us_per_op", Unit: "us/op", Better: "lower"},
		{Name: "syncnet.list_us_per_call", Unit: "us/call", Better: "lower"},
		{Name: "syncnet.download_us_per_mb", Unit: "us/MB", Better: "lower"},

		{Name: "wal.fsyncs_per_op", Unit: "count/op", Better: "lower"},
		{Name: "wal.fsync_us_per_op", Unit: "us/op", Better: "lower"},
		{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		{Name: "wal.compactions", Unit: "count", Better: "lower"},
		{Name: "wal.replay_mb_per_s", Unit: "MB/s", Better: "higher"},

		{Name: "delta.sign_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "delta.compute_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "delta.apply_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "delta.literal_share", Unit: "share", Better: "lower"},
		{Name: "md5.sum_us_per_op", Unit: "us/op", Better: "lower"},

		{Name: "comp.compress_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "comp.decompress_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "comp.ratio", Unit: "ratio", Better: "higher"},
		{Name: "dedup.hit_share", Unit: "share", Better: "higher"},
		{Name: "dedup.lookup_ns", Unit: "ns/lookup", Better: "lower"},
	}
	for _, c := range ledgerCauses {
		defs = append(defs, metricDef{Name: "ledger." + c + "_share", Unit: "share", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "core.allocs_per_file", Unit: "count/file", Better: "lower"},
		metricDef{Name: "core.alloc_bytes_per_file", Unit: "B/file", Better: "lower"},
		metricDef{Name: "chunker.cut_mb_per_s", Unit: "MB/s", Better: "higher"},
	)
	for _, svc := range replayServices {
		defs = append(defs, metricDef{Name: "core.tue." + svc, Unit: "ratio", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	)
}

// The eight traffic causes and the seven replayed services, spelled
// out so the metric list is fixed by this file and BENCHMARK.json, not
// by whatever the program enumerates at a later commit.
var (
	ledgerCauses = []string{"metadata", "payload", "dedup_probe", "delta_literal",
		"delta_copyref", "resume", "retransmit", "framing"}
	replayServices = []string{"google-drive", "onedrive", "dropbox", "box",
		"ubuntu-one", "sugarsync", "reference"}
)

// serviceSlug is a service's display name in metric-name form.
func serviceSlug(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "-")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
