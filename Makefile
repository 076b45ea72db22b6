GO ?= go

.PHONY: check fmt vet metriclint build test race stress crash serve-test shard-test proto-test repl-test advise-test fuzz-short relbench-test bench microbench allocs

## check: the full CI gate — formatting, vet, metric-name lint, build, tests under the race detector, concurrency stress, crash recovery, client/server serving, shard routing, wire protocol (negotiation + golden vectors + short fuzz), replication, adaptive merging, and the nested benchmark module (its tests + a smoke run)
check: fmt vet metriclint build race stress crash serve-test shard-test proto-test repl-test advise-test relbench-test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## metriclint: every registered metric name is unique and follows the naming convention
metriclint:
	$(GO) run ./scripts/metriclint .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## stress: the concurrency stress suite, fresh (uncached) under the race detector
stress:
	$(GO) test -race -count=1 -run 'Stress|Concurrent|Mixed' ./internal/engine/ ./internal/attrset/

## crash: the crash-recovery suite — WAL replay, failpoint injection, the recovery property matrix — fresh under the race detector
crash:
	$(GO) test -race -count=1 -run 'Crash|Failpoint|Recovery|WAL' ./internal/wal/ ./internal/engine/

## serve-test: the service-layer suite — wire protocol (incl. fuzz seeds), admission control, graceful drain, the kill-server-mid-batch crash test, and the cross-backend Session conformance suite — fresh under the race detector
serve-test:
	$(GO) test -race -count=1 -run 'Session|Remote|Serve|Frame|Wire|Protocol|Admission|Deadline|Drain|Kill|Coalesc|Client|Stats|Code|Sentinels' ./internal/server/ ./pkg/relmerge/

## shard-test: the sharding suite — hash golden vectors, cross-shard IND enforcement and stress, durable reopen — fresh under the race detector (the three-backend Session conformance suite, which includes the sharded router, runs under serve-test)
shard-test:
	$(GO) test -race -count=1 -run 'HashKey|Router|CrossShard|Shard|NonKeyIND|ProbeCache' ./internal/shard/

## proto-test: the wire-protocol suite — version negotiation matrix, binary golden vectors, codec round trips, encode allocation budget — fresh under the race detector, then a short fuzz of both codecs
proto-test:
	$(GO) test -race -count=1 -run 'Negotiation|Golden|Binary|Version|Fallback|Taxonomy|WriteFrame|EncodeAllocs' ./internal/server/
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/server/

## repl-test: the replication suite — WAL streaming and shipped-commit validation, follower catch-up, failover promotion, stream-fault (gap/reorder/duplicate) refusal, and the follower Session conformance reads — fresh under the race detector; the follower package itself twenty times over, because its tests race a poll loop against the primary
repl-test:
	$(GO) test -race -count=1 -run 'Repl|Follower|Promote|Failover|Ship|Stream|Snapshot|Checkpoint' ./internal/wal/ ./internal/engine/ ./pkg/relmerge/
	$(GO) test -race -count=20 ./internal/repl/

## advise-test: the adaptive-merging suite — live schema migration (engine + router), the migration crash matrix, co-access measurement, the online decision policy, and the public Advise/ApplyRecommendation API — fresh under the race detector
advise-test:
	$(GO) test -race -count=1 -run 'Migrate|CoAccess|Decide|Apply|Advis|CostModelFromStats' ./internal/engine/ ./internal/shard/ ./internal/advisor/... ./pkg/relmerge/

## fuzz-short: a longer fuzz pass over the wire codecs (frame reader + binary round trip)
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 60s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 60s ./internal/server/

## relbench-test: the nested benchmark module (the root build does not see it) — its tests, then every workload once at smoke length through the model gate
relbench-test:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -smoke

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
