#!/bin/sh
# The repo's CI gate: formatting, vet, build, the test suite under the race
# detector, the concurrency stress suite, the crash-recovery suite, the
# client/server serving suite, the shard-routing suite, the wire-protocol
# suite (negotiation matrix + golden vectors + short fuzz; all fresh,
# uncached), the replication suite, the adaptive-merging suite, and the nested
# benchmark module (its tests + a smoke run). Equivalent to `make check` for
# environments without make.
set -eu

cd "$(dirname "$0")/.."

out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

go vet ./...
go run ./scripts/metriclint .
go build ./...
go test -race ./...
go test -race -count=1 -run 'Stress|Concurrent|Mixed' ./internal/engine/ ./internal/attrset/
go test -race -count=1 -run 'Crash|Failpoint|Recovery|WAL' ./internal/wal/ ./internal/engine/
go test -race -count=1 -run 'Session|Remote|Serve|Frame|Wire|Protocol|Admission|Deadline|Drain|Kill|Coalesc|Client|Stats|Code|Sentinels' ./internal/server/ ./pkg/relmerge/
go test -race -count=1 -run 'HashKey|Router|CrossShard|Shard|NonKeyIND|ProbeCache' ./internal/shard/
go test -race -count=1 -run 'Negotiation|Golden|Binary|Version|Fallback|Taxonomy|WriteFrame|EncodeAllocs' ./internal/server/
go test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/server/
go test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/server/
go test -race -count=1 -run 'Repl|Follower|Promote|Failover|Ship|Stream|Snapshot|Checkpoint' ./internal/wal/ ./internal/engine/ ./pkg/relmerge/
go test -race -count=20 ./internal/repl/
go test -race -count=1 -run 'Migrate|CoAccess|Decide|Apply|Advis|CostModelFromStats' ./internal/engine/ ./internal/shard/ ./internal/advisor/... ./pkg/relmerge/
(cd benchmark && go test ./...)
bash benchmark/run.sh -smoke
