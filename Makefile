GO ?= go

.PHONY: check build vet test race fuzz bench bench-e2e bench-build tuebench

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

# fuzz explores the decoders for 30 s each beyond their seed corpora
# (replayed by every ordinary test run): the protocol frame decoder and
# stream reader, the delta and signature codecs, the leaf-guided delta
# scan over edit scripts (Compute's ops, an exact rebuild), the server's
# durable-state records (decode, re-encode, apply), the leaf sums a
# delta carries into its result's identity, and the server's Bundle
# demultiplexer. What decodes must re-encode to exactly its bytes. A
# crasher lands in the package's testdata/fuzz/<Target>: fix it and
# commit the file, so the test suite replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 30s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDelta$$' -fuzztime 30s ./internal/delta
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSignature$$' -fuzztime 30s ./internal/delta
	$(GO) test -run '^$$' -fuzz '^FuzzComputeLeaves$$' -fuzztime 30s ./internal/delta
	$(GO) test -run '^$$' -fuzz '^FuzzRecord$$' -fuzztime 30s ./internal/syncnet
	$(GO) test -run '^$$' -fuzz '^FuzzLeafSum$$' -fuzztime 30s ./internal/syncnet
	$(GO) test -run '^$$' -fuzz '^FuzzBundle$$' -fuzztime 30s ./internal/syncnet

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ ./...

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
