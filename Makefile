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

## allocs: where a write on the merged chain design allocates — BenchmarkWriteMergedChain with every allocation sampled, then the profile by allocation count (binary and profile go to .bench_build/, which is git-ignored)
allocs:
	mkdir -p .bench_build/allocs
	$(GO) test -run xxx -bench BenchmarkWriteMergedChain -benchtime 60000x -benchmem -memprofilerate=1 \
		-memprofile $(CURDIR)/.bench_build/allocs/mem.prof -o $(CURDIR)/.bench_build/allocs/engine.test ./internal/engine/
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=30 .bench_build/allocs/engine.test .bench_build/allocs/mem.prof
