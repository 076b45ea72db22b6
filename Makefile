GO ?= go

SUITES := $(shell sh scripts/check.sh -l)

.PHONY: check $(SUITES) test fuzz-short bench microbench allocs

export GO

## check: the full CI gate. scripts/check.sh holds the commands and the suite names (SUITES is `check.sh -l`; what each suite covers is written next to it there); `make <suite>` runs one of them.
check:
	sh scripts/check.sh

$(SUITES):
	sh scripts/check.sh $@

test:
	$(GO) test ./...

## fuzz-short: a longer fuzz pass over the wire codecs (frame reader + binary round trip)
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 60s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 60s ./internal/server/

## bench: the system benchmark (relbench; workloads and metrics in BENCHMARK.json)
bench:
	bash benchmark/run.sh

## microbench: the attribute-set, FD-closure, persistent-map and engine micro-benchmarks
microbench:
	$(GO) test -bench . -benchmem -run xxx ./internal/attrset/ ./internal/fd/ ./internal/immap/ ./internal/engine/

## allocs: where a write on the merged chain design allocates, in memory and then with a write-ahead log (SyncNever, as durable-write-chain runs it: record encoding and framing included), then where a remote round trip does — BenchmarkWriteMergedChain, BenchmarkWriteMergedChainDurable and BenchmarkRemoteRoundTrip (loopback fetch and insert) with every allocation sampled, each followed by its top 30 sites by allocation count, and the merged-chain writes also by bytes allocated (binaries and profiles go to .bench_build/, which is git-ignored)
allocs:
	mkdir -p .bench_build/allocs
	$(GO) test -run xxx -bench 'BenchmarkWriteMergedChain$$' -benchtime 60000x -benchmem -memprofilerate=1 \
		-memprofile $(CURDIR)/.bench_build/allocs/mem.prof -o $(CURDIR)/.bench_build/allocs/engine.test ./internal/engine/
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=30 .bench_build/allocs/engine.test .bench_build/allocs/mem.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=30 .bench_build/allocs/engine.test .bench_build/allocs/mem.prof
	$(GO) test -run xxx -bench 'BenchmarkWriteMergedChainDurable$$' -benchtime 60000x -benchmem -memprofilerate=1 \
		-memprofile $(CURDIR)/.bench_build/allocs/durable.prof -o $(CURDIR)/.bench_build/allocs/engine.test ./internal/engine/
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=30 .bench_build/allocs/engine.test .bench_build/allocs/durable.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=30 .bench_build/allocs/engine.test .bench_build/allocs/durable.prof
	$(GO) test -run xxx -bench BenchmarkRemoteRoundTrip -benchtime 20000x -benchmem -memprofilerate=1 \
		-memprofile $(CURDIR)/.bench_build/allocs/remote.prof -o $(CURDIR)/.bench_build/allocs/server.test ./internal/server/
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=30 .bench_build/allocs/server.test .bench_build/allocs/remote.prof
