GO ?= go

.PHONY: check build vet test race fuzz bench bench-core bench-kernel-diff bench-e2e bench-build tuebench

# check is the full gate: compile everything, vet, and run the test
# suite under the race detector (the experiment layer is concurrent).
check: build vet race

build:
	$(GO) build ./...

# vet also fails on any file gofmt would change, listing them.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz explores the wire decoders for 30 s each beyond their seed
# corpora (replayed by every ordinary test run): the protocol frame
# decoder and stream reader, and the delta and signature codecs. A
# crasher lands in the package's testdata/fuzz/<Target>: fix it and
# commit the file, so the test suite replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 30s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDelta$$' -fuzztime 30s ./internal/delta
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSignature$$' -fuzztime 30s ./internal/delta

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ ./...

# KERNEL_PKGS are the data-plane kernel packages (chunking, delta scan,
# and the flate codec); KERNEL_FILTER selects their entries out of
# BENCH_core.json for the failing throughput gate. Kernels run at a real
# -benchtime (unlike the 1x experiment tables) so the recorded MB/s
# figures are stable.
KERNEL_PKGS = ./internal/chunker ./internal/delta ./internal/comp
KERNEL_FILTER = ^(Fixed$$|ContentDefined|Delta|Resign$$|WeakSum$$|Compress1MBText$$|Decompress1MBText$$|FullUploadDedupHit$$)
# KERNEL_BENCH measures them, plus the live round trips whose cost is a
# kernel's: the repeat delta sync (the client-held signature keeps it
# at Resign's O(edit) hashing and the server signs nothing; losing
# either shows as Sign's extra allocations and a throughput drop), and
# the full upload that hits dedup (it compresses nothing; compressing
# anyway shows as Compress's allocations and a 10x throughput drop, and
# a Compress without its pooled writer as nearly twice Compress1MBText's).
KERNEL_BENCH = $(GO) test -bench . -benchmem -benchtime 0.5s -run '^$$' $(KERNEL_PKGS) ; \
	$(GO) test -bench 'DeltaSyncRepeat$$|FullUploadDedupHit$$' -benchmem -benchtime 0.5s -run '^$$' ./internal/syncnet

# bench-core records the experiment-table baseline — every root-package
# benchmark (the paper tables and figures) at -benchtime 1x — plus the
# kernel benchmarks at a real benchtime with their MB/s
# captured, dumped together into BENCH_core.json. ns/op is
# machine-dependent — the trajectory to watch is allocation counts,
# relative shape, and kernel throughput ratios.
bench-core:
	{ $(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . ; $(KERNEL_BENCH) ; } \
		| $(GO) run ./internal/obs/benchjson > BENCH_core.json
	cat BENCH_core.json

# bench-kernel-diff is the failing CI gate on the data-plane kernels:
# re-measure only the kernel benchmarks and diff allocation
# counts (tight, machine-independent) and MB/s throughput (loose —
# absolute throughput moves with the machine, so the 50% bound only
# catches falling off an algorithmic cliff: losing the gear-hash skip
# scan, the tag bitmap, or the batched hashing is a 2–10x drop) against
# the kernel entries of BENCH_core.json.
bench-kernel-diff:
	{ $(KERNEL_BENCH) ; } \
		| $(GO) run ./internal/obs/benchjson > /tmp/bench_kernel_new.json
	$(GO) run ./internal/obs/benchjson -compare -filter '$(KERNEL_FILTER)' \
		BENCH_core.json /tmp/bench_kernel_new.json

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
