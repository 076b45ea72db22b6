#!/bin/sh
# The repo's CI gate, and the one place its commands are kept:
#
#	sh scripts/check.sh            # the full gate, every suite below in order
#	sh scripts/check.sh stress     # one suite (or several, in the order given)
#	sh scripts/check.sh -l         # the suite names, in gate order
#
# `make check` and `make <suite>` run this script, and the Makefile takes its
# suite targets from -l: a new suite is a case below plus its name in `all`.
# Every test suite runs fresh (uncached) under the race detector.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}
all="fmt vet metriclint build race stress crash serve-test shard-test proto-test repl-test advise-test relbench-test"

suite() {
	case "$1" in
	fmt)
		out=$(gofmt -l .)
		if [ -n "$out" ]; then
			echo "gofmt needed on:"
			echo "$out"
			exit 1
		fi
		;;
	vet)
		$GO vet ./...
		;;
	metriclint) # every registered metric name is unique and follows the naming convention
		$GO run ./scripts/metriclint .
		;;
	build)
		$GO build ./...
		;;
	race)
		$GO test -race ./...
		;;
	stress) # the concurrency stress suite
		$GO test -race -count=1 -run 'Stress|Concurrent|Mixed' ./internal/engine/ ./internal/attrset/
		;;
	crash) # WAL replay, failpoint injection, the recovery property matrix, then short fuzzes of the record replay path, of the checkpoint decoder, of the whole-state constraint fold against its Satisfied reference, and of the log reader
		$GO test -race -count=1 -run 'Crash|Failpoint|Recovery|WAL' ./internal/wal/ ./internal/engine/
		$GO test -run xxx -fuzz FuzzReplayRecord -fuzztime 10s ./internal/engine/
		$GO test -run xxx -fuzz FuzzCheckpoint -fuzztime 10s ./internal/engine/
		$GO test -run xxx -fuzz FuzzConsistent -fuzztime 10s ./internal/state/
		$GO test -run xxx -fuzz FuzzOpenReadCommitted -fuzztime 10s ./internal/wal/
		;;
	serve-test) # wire protocol (incl. fuzz seeds), admission control, graceful drain, the kill-server-mid-batch crash test, the cross-backend Session conformance suite
		$GO test -race -count=1 -run 'Session|Remote|Serve|Frame|Wire|Protocol|Admission|Deadline|Drain|Kill|Coalesc|Client|Stats|Code|Sentinels' ./internal/server/ ./pkg/relmerge/
		;;
	shard-test) # hash golden vectors, cross-shard IND enforcement, durable reopen and log-failure compensation (the sharded Session conformance runs under serve-test); then the insert-probe vs referenced-delete stress twenty times over, the guard of the router's lock rule
		$GO test -race -count=1 -run 'HashKey|Router|CrossShard|Shard|NonKeyIND' ./internal/shard/
		$GO test -race -count=20 -run 'TestCrossShardINDStress$' ./internal/shard/
		;;
	proto-test) # version negotiation matrix, binary golden vectors, codec round trips, encode allocation budget, then a short fuzz of both codecs
		$GO test -race -count=1 -run 'Negotiation|Golden|Binary|Version|Taxonomy|WriteFrame|EncodeAllocs' ./internal/server/
		$GO test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/server/
		$GO test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/server/
		;;
	repl-test) # WAL streaming and shipped-commit validation, follower catch-up, failover promotion, stream-fault refusal, follower Session reads; the follower package twenty times over, because its tests race a poll loop against the primary
		$GO test -race -count=1 -run 'Repl|Follower|Promote|Failover|Ship|Stream|Snapshot|Checkpoint' ./internal/wal/ ./internal/engine/ ./pkg/relmerge/
		$GO test -race -count=20 ./internal/repl/
		;;
	advise-test) # live schema migration (engine + router), the migration crash matrix, co-access measurement, the online decision policy, the public Advise/ApplyRecommendation API; then 10 s of FuzzMapping, the compiled state mapping (η, η′) against its MapState/UnmapState reference
		$GO test -race -count=1 -run 'Migrate|CoAccess|Decide|Apply|Advis|CostModelFromStats' ./internal/engine/ ./internal/shard/ ./internal/advisor/... ./pkg/relmerge/
		$GO test -run xxx -fuzz FuzzMapping -fuzztime 10s ./internal/core/
		;;
	relbench-test) # the nested benchmark module (the root build does not see it): its tests, then every workload once at smoke length through the model gate
		(cd benchmark && $GO test ./...)
		bash benchmark/run.sh -smoke
		;;
	*)
		echo "check.sh: unknown suite '$1'" >&2
		exit 2
		;;
	esac
}

if [ "${1:-}" = -l ]; then
	echo "$all"
	exit 0
fi
[ $# -gt 0 ] || set -- $all
for s; do
	suite "$s"
done
