package relmerge_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/pkg/relmerge"
)

// startFollowerPair stands up a durable primary engine over the conformance
// schema behind a server, plus a FollowerSession shipping from it through the
// unified Open entrypoint. The caller writes through the returned engine.
func startFollowerPair(t *testing.T) (*relmerge.Engine, *server.Server, *relmerge.FollowerSession) {
	t.Helper()
	return startFollowerPairOn(t, confSchema)
}

// startFollowerPairOn is startFollowerPair over the schema newSchema builds.
func startFollowerPairOn(t *testing.T, newSchema func() *relmerge.Schema) (*relmerge.Engine, *server.Server, *relmerge.FollowerSession) {
	t.Helper()
	eng, err := relmerge.OpenEngine(newSchema(),
		relmerge.WithDurability(t.TempDir(), relmerge.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); eng.Close() })

	sess, err := relmerge.Open(relmerge.Config{
		Backend:      relmerge.Follower,
		Schema:       newSchema(),
		Addr:         ln.Addr().String(),
		DurableDir:   t.TempDir(),
		Sync:         relmerge.SyncAlways,
		PollInterval: 2 * time.Millisecond,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := sess.(*relmerge.FollowerSession)
	t.Cleanup(func() { fs.Close() })
	return eng, srv, fs
}

// waitApplied waits until the follower's visible version has reached horizon
// (ReplicationInfo().AppliedLSN is the log position, which an ingest advances
// before it publishes the records it applied).
func waitApplied(t *testing.T, fs *relmerge.FollowerSession, horizon uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fs.View().LSN() < horizon {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, want %d (repl err %q)",
				fs.ReplicationInfo().AppliedLSN, horizon, fs.ReplicationInfo().Err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The conformance suite's read cases, run against a follower Session: hits,
// clean misses, unknown-relation taxonomy, and stats must answer exactly as
// an embedded session over the same state would.
func TestFollowerSessionConformanceReads(t *testing.T) {
	eng, _, fs := startFollowerPair(t)
	if err := eng.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertCtx(context.Background(), "D", d("d2", "ops")); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertCtx(context.Background(), "E", e("e1", "d1", "90")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fs, eng.DurableLSN())

	ref, err := relmerge.Open(relmerge.Config{Schema: confSchema()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, ins := range []struct {
		rel string
		tup relmerge.Tuple
	}{{"D", d("d1", "eng")}, {"D", d("d2", "ops")}, {"E", e("e1", "d1", "90")}} {
		if err := ref.InsertCtx(context.Background(), ins.rel, ins.tup); err != nil {
			t.Fatal(err)
		}
	}

	// Hit: identical tuple from both backends.
	for _, rel := range []string{"D", "E"} {
		key := k("d1")
		if rel == "E" {
			key = k("e1")
		}
		got, ok, err := fs.FetchCtx(context.Background(), rel, key)
		if err != nil || !ok {
			t.Fatalf("follower Fetch(%s): ok=%v err=%v", rel, ok, err)
		}
		want, _, _ := ref.FetchCtx(context.Background(), rel, key)
		if !got.Identical(want) {
			t.Fatalf("follower Fetch(%s) = %v, embedded = %v", rel, got, want)
		}
	}
	// Clean miss: found=false, nil error — not an error condition.
	if _, ok, err := fs.FetchCtx(context.Background(), "D", k("dx")); ok || err != nil {
		t.Fatalf("follower miss: ok=%v err=%v, want false,nil", ok, err)
	}
	// Unknown relation: same sentinel and code as embedded.
	_, _, ferr := fs.FetchCtx(context.Background(), "NOPE", k("x"))
	_, _, rerr := ref.FetchCtx(context.Background(), "NOPE", k("x"))
	if !errors.Is(ferr, relmerge.ErrUnknownRelation) || relmerge.Code(ferr) != relmerge.Code(rerr) {
		t.Fatalf("follower unknown-relation = %v (code %s), embedded code %s",
			ferr, relmerge.Code(ferr), relmerge.Code(rerr))
	}
	// Stats: stamped at the follower's applied version.
	st, err := fs.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.VersionLSN != fs.ReplicationInfo().AppliedLSN {
		t.Fatalf("Stats.VersionLSN = %d, applied = %d", st.VersionLSN, fs.ReplicationInfo().AppliedLSN)
	}
}

// Every write path on a follower Session fails with ErrReadOnly /
// CodeReadOnly until Promote; after promotion writes flow with the full
// constraint taxonomy intact.
func TestFollowerSessionWritesRefuseUntilPromoted(t *testing.T) {
	eng, srv, fs := startFollowerPair(t)
	if err := eng.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fs, eng.DurableLSN())

	writes := map[string]error{
		"Insert":      fs.InsertCtx(context.Background(), "D", d("d9", "x")),
		"Delete":      fs.DeleteCtx(context.Background(), "D", k("d1")),
		"Update":      fs.UpdateCtx(context.Background(), "D", k("d1"), d("d1", "y")),
		"InsertBatch": fs.InsertBatchCtx(context.Background(), "D", []relmerge.Tuple{d("d9", "x")}),
		"ApplyBatch":  fs.ApplyBatchCtx(context.Background(), []relmerge.BatchOp{relmerge.Ins("D", d("d9", "x"))}),
		"Begin":       fs.BeginCtx(context.Background()),
		"Commit":      fs.CommitCtx(context.Background()),
		"Rollback":    fs.RollbackCtx(context.Background()),
	}
	for op, err := range writes {
		if !errors.Is(err, relmerge.ErrReadOnly) {
			t.Fatalf("follower %s = %v, want ErrReadOnly", op, err)
		}
		if relmerge.Code(err) != relmerge.CodeReadOnly {
			t.Fatalf("follower %s code = %s, want %s", op, relmerge.Code(err), relmerge.CodeReadOnly)
		}
	}

	// Primary dies; the promoted follower owns the acked prefix and writes.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Promote(); err != nil {
		t.Fatal(err)
	}
	if !fs.ReplicationInfo().Promoted {
		t.Fatal("ReplicationInfo().Promoted false after Promote")
	}
	if err := fs.InsertCtx(context.Background(), "D", d("d2", "ops")); err != nil {
		t.Fatalf("promoted insert: %v", err)
	}
	// Constraint taxonomy survives promotion: a dangling IND insert reports
	// a ConstraintViolation exactly as an embedded session would.
	var cv *relmerge.ConstraintViolation
	if err := fs.InsertCtx(context.Background(), "E", e("e9", "d-missing", "10")); !errors.As(err, &cv) {
		t.Fatalf("promoted dangling-IND insert = %v, want ConstraintViolation", err)
	}
	if _, ok, err := fs.FetchCtx(context.Background(), "D", k("d2")); !ok || err != nil {
		t.Fatalf("promoted read-back: ok=%v err=%v", ok, err)
	}
}

// pairSchema is two relations with compatible keys, B's referencing A's: the
// smallest design with a merge to apply.
func pairSchema() *relmerge.Schema {
	s, err := relmerge.ParseSchema(`
relation A (A.K k, A.V v) key (A.K)
relation B (B.K k, B.W w) key (B.K)
ind B[B.K] <= A[A.K]
nna A (A.K, A.V)
nna B (B.K, B.W)
`)
	if err != nil {
		panic(err)
	}
	return s
}

// A live migration whose mapped state is larger than one protocol frame
// (server.DefaultMaxFrame) still reaches a follower: the migration record
// carries the merge, not the state, and the follower re-derives the state
// from its own rows.
func TestFollowerFollowsMigrationBeyondFrameLimit(t *testing.T) {
	ctx := context.Background()
	eng, _, fs := startFollowerPairOn(t, pairSchema)
	const rows, chunk = 600, 100
	pad := strings.Repeat("x", 4096)
	str := func(format string, j int) relmerge.Value { return relmerge.NewString(fmt.Sprintf(format, j) + pad) }
	for i := 0; i < rows; i += chunk {
		var as, bs []relmerge.Tuple
		for j := i; j < i+chunk; j++ {
			key := relmerge.NewString(fmt.Sprintf("k%04d", j))
			as = append(as, relmerge.Tuple{key, str("a%04d-", j)})
			bs = append(bs, relmerge.Tuple{key, str("b%04d-", j)})
		}
		if err := eng.InsertBatchCtx(ctx, "A", as); err != nil {
			t.Fatal(err)
		}
		if err := eng.InsertBatchCtx(ctx, "B", bs); err != nil {
			t.Fatal(err)
		}
	}
	if size := len(relmerge.PrintState(eng.Schema, eng.Snapshot())); size <= server.DefaultMaxFrame {
		t.Fatalf("state is %d bytes, want more than one frame (%d)", size, server.DefaultMaxFrame)
	}
	// The session is a view of the engine, which the pair's cleanup closes.
	rec := relmerge.Recommendation{Cluster: []string{"A", "B"}, KeyRelation: "A", MergedName: "AB"}
	if err := relmerge.NewSession(eng).ApplyRecommendation(ctx, rec); err != nil {
		t.Fatalf("ApplyRecommendation: %v", err)
	}
	waitApplied(t, fs, eng.DurableLSN())
	if got := fs.View().Count("AB"); got != rows {
		t.Fatalf("follower holds %d merged rows, want %d", got, rows)
	}
	for _, j := range []int{0, 317, rows - 1} {
		key := k(fmt.Sprintf("k%04d", j))
		got, found, err := fs.FetchCtx(ctx, "AB", key)
		want, _, _ := eng.GetByKeyCtx(ctx, "AB", key)
		if err != nil || !found || !got.Identical(want) {
			t.Fatalf("follower Fetch(AB, %v) = %v, %v, %v; primary has %v", key, got, found, err, want)
		}
	}
	if _, _, err := fs.FetchCtx(ctx, "B", k("k0000")); !errors.Is(err, relmerge.ErrUnknownRelation) {
		t.Fatalf("follower still serves the pre-merge design: %v", err)
	}
}
