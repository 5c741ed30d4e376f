GO ?= go

.PHONY: check build vet test race bench bench-obs bench-core bench-scale bench-kernel-diff bench-load bench-e2e bench-build tuebench

# check is the full gate: compile everything, vet, and run the test
# suite under the race detector (the experiment layer is concurrent).
check: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ ./...

# bench-obs measures the observability tax: every <Base>Off/<Base>On
# benchmark pair (nil tracer/registry vs instrumented) across the obs
# primitives and the syncnet hot path, summarised as overhead
# percentages in BENCH_obs.json. Target: spans/counters on the nil
# path free, instrumented sync path within a few percent.
bench-obs:
	$(GO) test -bench 'ObsO(ff|n)$$' -benchmem -run '^$$' \
		./internal/obs ./internal/syncnet \
		| $(GO) run ./internal/obs/benchjson > BENCH_obs.json
	cat BENCH_obs.json

# KERNEL_PKGS are the data-plane kernel packages (chunking and delta
# scan); KERNEL_FILTER selects their entries out of BENCH_core.json for
# the failing throughput gate. Kernels run at a real -benchtime (unlike
# the 1x experiment tables) so the recorded MB/s figures are stable.
KERNEL_PKGS = ./internal/chunker ./internal/delta
KERNEL_FILTER = ^(Fixed$$|ContentDefined|Delta|Resign$$|WeakSum$$)
# KERNEL_BENCH measures them, plus the one live round trip whose cost is
# a kernel's: the repeat delta sync (syncnet's signature cache keeps it
# at Resign's O(edit) hashing; losing the cache shows as Sign's extra
# allocations and a throughput drop).
KERNEL_BENCH = $(GO) test -bench . -benchmem -benchtime 0.5s -run '^$$' $(KERNEL_PKGS) ; \
	$(GO) test -bench 'DeltaSyncRepeat$$' -benchmem -benchtime 0.5s -run '^$$' ./internal/syncnet

# bench-core records the experiment-table baseline — every root-package
# benchmark (the paper tables and figures) at -benchtime 1x — plus the
# chunker/delta kernel benchmarks at a real benchtime with their MB/s
# captured, dumped together into BENCH_core.json. ns/op is
# machine-dependent — the trajectory to watch is allocation counts,
# relative shape, and kernel throughput ratios.
bench-core:
	{ $(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . ; $(KERNEL_BENCH) ; } \
		| $(GO) run ./internal/obs/benchjson -raw > BENCH_core.json
	cat BENCH_core.json

# bench-scale records the multi-tenant scale-replay baseline: the trace
# replayed at 8× synthetic user multiples on the sharded index/cloud,
# reporting wall time, heap growth, peak RSS, and per-service TUE
# (which must match the 1× baseline exactly) into BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/tuebench scale -n 8 \
		| $(GO) run ./internal/obs/benchjson -raw > BENCH_scale.json
	cat BENCH_scale.json

# bench-kernel-diff is the failing CI gate on the data-plane kernels:
# re-measure only the chunker/delta benchmarks and diff allocation
# counts (tight, machine-independent) and MB/s throughput (loose —
# absolute throughput moves with the machine, so the 50% default only
# catches falling off an algorithmic cliff: losing the gear-hash skip
# scan, the tag bitmap, or the batched hashing is a 2–10x drop) against
# the kernel entries of BENCH_core.json.
bench-kernel-diff:
	{ $(KERNEL_BENCH) ; } \
		| $(GO) run ./internal/obs/benchjson -raw > /tmp/bench_kernel_new.json
	$(GO) run ./internal/obs/benchjson -compare BENCH_core.json /tmp/bench_kernel_new.json \
		-tolerance-pct 10 -throughput-tolerance-pct 50 -filter '$(KERNEL_FILTER)'

# bench-load records the live-sync throughput baseline: syncload drives
# open-loop arrivals of small-file batches against an in-process syncd
# over real TCP in both modes (lockstep, bundle) at a rate past lockstep
# saturation, verifying ledger exactness as it goes, and writes
# sustained req/s, latency quantiles, and peak RSS per mode into
# BENCH_load.json. The headline is the shape, which follows the
# exchanges per file: these files fit one delta block, so lockstep
# Upload sends each inline (one exchange per file) and sheds what it
# cannot carry; bundle (one exchange per batch) must carry the whole
# offered rate without shedding, at a fraction of lockstep's p50 and p99.
SYNCLOAD_ARGS = -accounts 256 -rate 8000 -duration 4s -batch 8 \
	-max-size 4096 -seed 1 -check -quiet

bench-load:
	$(GO) run ./cmd/syncload $(SYNCLOAD_ARGS) -json BENCH_load.json
	cat BENCH_load.json

# bench-e2e runs the repo's one closed-loop benchmark (BENCHMARK.json):
# every named workload, end-to-end metrics checked for correctness,
# results under bench/out/. Pass arguments through ARGS, e.g.
# `make bench-e2e ARGS='-workload large-modify -trace 1'`.
bench-e2e:
	bash bench/run.sh $(ARGS)

# bench-build compiles and vets the benchmark. bench/ is its own module
# importing internal/*, invisible to the root `go build ./...`, so this
# is what catches an internal API drifting away from it. Compile-only:
# the module's timing-sensitive tests are not for CI machines.
bench-build:
	cd bench && $(GO) build ./... && $(GO) vet ./...

tuebench:
	$(GO) run ./cmd/tuebench -quick
