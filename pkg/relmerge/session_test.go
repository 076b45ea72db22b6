package relmerge_test

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/pkg/relmerge"
)

// confSchema is the conformance schema: a referenced relation D, a
// referencing relation E with a key-based inclusion dependency into D and a
// nulls-not-allowed payload attribute — enough surface to provoke every
// constraint regime a Session can report.
func confSchema() *relmerge.Schema {
	s := relmerge.NewSchema()
	s.AddScheme(relmerge.NewScheme("D",
		[]relmerge.Attribute{{Name: "D.ID", Domain: "d"}, {Name: "D.NAME", Domain: "n"}},
		[]string{"D.ID"}))
	s.AddScheme(relmerge.NewScheme("E",
		[]relmerge.Attribute{{Name: "E.ID", Domain: "e"}, {Name: "E.D", Domain: "d"}, {Name: "E.PAY", Domain: "p"}},
		[]string{"E.ID"}))
	s.INDs = append(s.INDs, relmerge.NewIND("E", []string{"E.D"}, "D", []string{"D.ID"}))
	s.Nulls = append(s.Nulls, relmerge.NNA("E", "E.PAY"))
	return s
}

func d(id, name string) relmerge.Tuple {
	return relmerge.Tuple{relmerge.NewString(id), relmerge.NewString(name)}
}

func e(id, dept, pay string) relmerge.Tuple {
	return relmerge.Tuple{relmerge.NewString(id), relmerge.NewString(dept), relmerge.NewString(pay)}
}

func k(id string) relmerge.Tuple { return relmerge.Tuple{relmerge.NewString(id)} }

// withBackends runs one conformance body against a fresh embedded session,
// a fresh remote session (relmerged server over loopback), a fresh sharded
// session (3-way hash-partitioned router), and a follower session promoted
// over an empty primary — every one constructed through the unified
// relmerge.Open entrypoint. The Session contract — results, error sentinels,
// error codes, constraint-violation kinds (including for dependencies whose
// two sides land on different shards) — must be identical.
func withBackends(t *testing.T, body func(t *testing.T, sess relmerge.Session)) {
	t.Helper()
	t.Run("embedded", func(t *testing.T) {
		sess, err := relmerge.Open(relmerge.Config{
			Schema:   confSchema(),
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		body(t, sess)
	})
	t.Run("remote", func(t *testing.T) {
		eng, err := engine.Open(confSchema(), engine.WithRegistry(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(eng, server.Config{Registry: obs.NewRegistry()})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		sess, err := relmerge.Open(relmerge.Config{
			Backend: relmerge.Remote,
			Addr:    ln.Addr().String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		body(t, sess)
	})
	t.Run("sharded", func(t *testing.T) {
		sess, err := relmerge.Open(relmerge.Config{
			Backend:  relmerge.Sharded,
			Schema:   confSchema(),
			Shards:   3,
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		body(t, sess)
	})
	t.Run("promoted-follower", func(t *testing.T) {
		_, srv, fs := startFollowerPair(t)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Promote(); err != nil {
			t.Fatal(err)
		}
		body(t, fs)
	})
}

// Each operation exists in one spelling at each layer: no type of the
// operational surface carries both X and XCtx, and neither does the package
// scope of this package or of internal/query (swept from the source, as
// TestSentinelsMapIsComplete sweeps the sentinels).
func TestNoCtxTwins(t *testing.T) {
	for _, dir := range []string{".", "../../internal/query"} {
		names := map[string]bool{}
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							names[d.Name.Name] = true
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							if vs, ok := spec.(*ast.ValueSpec); ok {
								for _, id := range vs.Names {
									names[id.Name] = true
								}
							}
						}
					}
				}
			}
		}
		for name := range names {
			if ast.IsExported(name) && names[name+"Ctx"] {
				t.Errorf("package %s has both %s and %sCtx", dir, name, name)
			}
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*relmerge.Session)(nil)).Elem(),
		reflect.TypeOf((*relmerge.EmbeddedSession)(nil)),
		reflect.TypeOf((*relmerge.ShardedSession)(nil)),
		reflect.TypeOf((*relmerge.FollowerSession)(nil)),
		reflect.TypeOf((*relmerge.RemoteSession)(nil)),
		reflect.TypeOf((*engine.DB)(nil)),
		reflect.TypeOf((*shard.Router)(nil)),
		reflect.TypeOf((*server.Client)(nil)),
		reflect.TypeOf((*query.BasePlanner)(nil)),
		reflect.TypeOf((*query.MergedPlanner)(nil)),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if _, twin := typ.MethodByName(name + "Ctx"); twin {
				t.Errorf("%v has both %s and %sCtx", typ, name, name)
			}
		}
	}
}

func TestSessionRoundTrip(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		if err := sess.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
			t.Fatal(err)
		}
		if err := sess.InsertCtx(context.Background(), "E", e("e1", "d1", "100")); err != nil {
			t.Fatal(err)
		}
		tup, found, err := sess.FetchCtx(context.Background(), "E", k("e1"))
		if err != nil || !found {
			t.Fatalf("fetch: found=%v err=%v", found, err)
		}
		if tup[2].AsString() != "100" {
			t.Fatalf("fetched %v", tup)
		}
		// Clean miss: found=false with a nil error, not a sentinel.
		if _, found, err := sess.FetchCtx(context.Background(), "E", k("nobody")); err != nil || found {
			t.Fatalf("miss: found=%v err=%v", found, err)
		}
		if err := sess.UpdateCtx(context.Background(), "E", k("e1"), e("e1", "d1", "200")); err != nil {
			t.Fatal(err)
		}
		tup, _, _ = sess.FetchCtx(context.Background(), "E", k("e1"))
		if tup[2].AsString() != "200" {
			t.Fatalf("update not visible: %v", tup)
		}
		if err := sess.DeleteCtx(context.Background(), "E", k("e1")); err != nil {
			t.Fatal(err)
		}
		if _, found, _ := sess.FetchCtx(context.Background(), "E", k("e1")); found {
			t.Fatal("delete not visible")
		}
	})
}

func TestSessionErrorTaxonomy(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		if err := sess.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
			t.Fatal(err)
		}

		// Unknown relation.
		err := sess.InsertCtx(context.Background(), "NOPE", d("x", "y"))
		if !errors.Is(err, relmerge.ErrUnknownRelation) {
			t.Fatalf("unknown relation: %v", err)
		}
		if code := relmerge.Code(err); code != relmerge.CodeUnknownRelation {
			t.Fatalf("unknown relation code %q", code)
		}

		// No such tuple.
		err = sess.DeleteCtx(context.Background(), "D", k("ghost"))
		if !errors.Is(err, relmerge.ErrNoSuchTuple) || relmerge.Code(err) != relmerge.CodeNoSuchTuple {
			t.Fatalf("no such tuple: %v (%q)", err, relmerge.Code(err))
		}

		// Arity mismatch.
		err = sess.InsertCtx(context.Background(), "D", k("short"))
		if !errors.Is(err, relmerge.ErrArityMismatch) || relmerge.Code(err) != relmerge.CodeArityMismatch {
			t.Fatalf("arity: %v (%q)", err, relmerge.Code(err))
		}

		// Constraint violations surface the full typed error on both
		// backends: the sentinel, the concrete type with its Kind, and the
		// stable code.
		err = sess.InsertCtx(context.Background(), "E", e("e9", "no-such-dept", "1"))
		if !errors.Is(err, relmerge.ErrConstraintViolation) {
			t.Fatalf("FK violation sentinel: %v", err)
		}
		var cv *relmerge.ConstraintViolation
		if !errors.As(err, &cv) {
			t.Fatalf("FK violation not extractable: %v", err)
		}
		if cv.Kind != engine.ForeignKeyViolation || cv.Relation != "E" {
			t.Fatalf("FK violation detail: %+v", cv)
		}
		if relmerge.Code(err) != relmerge.CodeConstraint {
			t.Fatalf("FK violation code %q", relmerge.Code(err))
		}

		// NOT NULL violation keeps its kind and attribute across the wire.
		err = sess.InsertCtx(context.Background(), "E", relmerge.Tuple{relmerge.NewString("e9"), relmerge.NewString("d1"), relmerge.Null()})
		if !errors.As(err, &cv) || cv.Kind != engine.NotNullViolation || cv.Attr != "E.PAY" {
			t.Fatalf("NNA violation: %v -> %+v", err, cv)
		}

		// Checkpoint on a non-durable engine; a follower's engine is durable
		// by construction (its log is the replica state).
		err = sess.CheckpointCtx(context.Background())
		if _, durable := sess.(*relmerge.FollowerSession); durable {
			if err != nil {
				t.Fatalf("checkpoint on a promoted follower: %v", err)
			}
		} else if !errors.Is(err, relmerge.ErrNotDurable) || relmerge.Code(err) != relmerge.CodeNotDurable {
			t.Fatalf("checkpoint: %v (%q)", err, relmerge.Code(err))
		}
	})
}

func TestSessionBatchAtomicity(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		if err := sess.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
			t.Fatal(err)
		}
		// One bad tuple aborts the whole batch: nothing from it survives.
		err := sess.InsertBatchCtx(context.Background(), "E", []relmerge.Tuple{
			e("b1", "d1", "1"),
			e("b2", "no-such-dept", "2"),
		})
		if !errors.Is(err, relmerge.ErrConstraintViolation) {
			t.Fatalf("bad batch: %v", err)
		}
		if _, found, _ := sess.FetchCtx(context.Background(), "E", k("b1")); found {
			t.Fatal("aborted batch leaked its first tuple")
		}
		// A clean batch lands whole.
		if err := sess.InsertBatchCtx(context.Background(), "E", []relmerge.Tuple{e("b1", "d1", "1"), e("b3", "d1", "3")}); err != nil {
			t.Fatal(err)
		}
		// Mixed batch: insert + update + delete, atomically.
		err = sess.ApplyBatchCtx(context.Background(), []relmerge.BatchOp{
			relmerge.Ins("E", e("b4", "d1", "4")),
			relmerge.Upd("E", k("b1"), e("b1", "d1", "10")),
			relmerge.Del("E", k("b3")),
		})
		if err != nil {
			t.Fatal(err)
		}
		tup, _, _ := sess.FetchCtx(context.Background(), "E", k("b1"))
		if tup[2].AsString() != "10" {
			t.Fatalf("batched update not visible: %v", tup)
		}
		if _, found, _ := sess.FetchCtx(context.Background(), "E", k("b3")); found {
			t.Fatal("batched delete not visible")
		}
		if _, found, _ := sess.FetchCtx(context.Background(), "E", k("b4")); !found {
			t.Fatal("batched insert not visible")
		}
	})
}

// TestSessionFetchNeverSeesTornBatch races fetches against delete-reinsert
// batches on both backends: each batch removes a key and re-adds it with a
// fresh payload in ONE atomic group, so a concurrent fetch must always find
// the key (the deleted-but-not-yet-reinserted middle is never a published
// state) and must always see a payload some whole batch wrote. On the
// embedded engine this is the MVCC single-publish guarantee observed through
// the Session surface; the remote backend must agree.
func TestSessionFetchNeverSeesTornBatch(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		if err := sess.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
			t.Fatal(err)
		}
		if err := sess.InsertCtx(context.Background(), "E", e("hot", "d1", "round-0")); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var fetches atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					tup, found, err := sess.FetchCtx(context.Background(), "E", k("hot"))
					if err != nil {
						t.Errorf("fetch: %v", err)
						return
					}
					if !found {
						t.Error("fetch saw the torn middle of a delete+reinsert batch")
						return
					}
					if pay := tup[2].AsString(); !strings.HasPrefix(pay, "round-") {
						t.Errorf("fetch saw payload %q no batch ever wrote", pay)
						return
					}
					fetches.Add(1)
				}
			}()
		}
		for i := 1; fetches.Load() < 200 && i < 4000; i++ {
			err := sess.ApplyBatchCtx(context.Background(), []relmerge.BatchOp{
				relmerge.Del("E", k("hot")),
				relmerge.Ins("E", e("hot", "d1", fmt.Sprintf("round-%d", i))),
			})
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		close(stop)
		wg.Wait()
		if fetches.Load() == 0 {
			t.Fatal("no fetch completed during the batch churn")
		}
	})
}

func TestSessionTransactions(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		if err := sess.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
			t.Fatal(err)
		}
		// Rollback undoes the transaction's writes.
		if err := sess.BeginCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := sess.InsertCtx(context.Background(), "E", e("t1", "d1", "1")); err != nil {
			t.Fatal(err)
		}
		if err := sess.RollbackCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, found, _ := sess.FetchCtx(context.Background(), "E", k("t1")); found {
			t.Fatal("rollback left the write visible")
		}
		// Commit keeps them.
		if err := sess.BeginCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := sess.InsertCtx(context.Background(), "E", e("t2", "d1", "2")); err != nil {
			t.Fatal(err)
		}
		if err := sess.CommitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, found, _ := sess.FetchCtx(context.Background(), "E", k("t2")); !found {
			t.Fatal("committed write lost")
		}
		// Sequencing errors map to ErrTxn/CodeTxn on both backends.
		err := sess.CommitCtx(context.Background())
		if !errors.Is(err, relmerge.ErrTxn) || relmerge.Code(err) != relmerge.CodeTxn {
			t.Fatalf("commit without begin: %v (%q)", err, relmerge.Code(err))
		}
		err = sess.RollbackCtx(context.Background())
		if !errors.Is(err, relmerge.ErrTxn) {
			t.Fatalf("rollback without begin: %v", err)
		}
	})
}

func TestSessionStats(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		before, err := sess.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.InsertCtx(context.Background(), "D", d("d1", "eng")); err != nil {
			t.Fatal(err)
		}
		sess.FetchCtx(context.Background(), "D", k("d1"))
		after, err := sess.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if after.Inserts != before.Inserts+1 {
			t.Errorf("inserts %d -> %d", before.Inserts, after.Inserts)
		}
		if after.Lookups <= before.Lookups {
			t.Errorf("lookups %d -> %d", before.Lookups, after.Lookups)
		}
		// The insert published a new MVCC version, so the stamped LSN must
		// have advanced — on the embedded engine and across the wire alike.
		if after.VersionLSN <= before.VersionLSN {
			t.Errorf("version LSN did not advance across a write: %d -> %d", before.VersionLSN, after.VersionLSN)
		}
	})
}

func TestSessionDeadline(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		err := sess.InsertCtx(ctx, "D", d("d1", "eng"))
		if err == nil {
			t.Fatal("expired context accepted")
		}
		if code := relmerge.Code(err); code != relmerge.CodeDeadline {
			t.Fatalf("expired context code %q (%v)", code, err)
		}
		if !errors.Is(err, relmerge.ErrDeadline) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired context does not match the deadline sentinels: %v", err)
		}
		if _, found, _ := sess.FetchCtx(context.Background(), "D", k("d1")); found {
			t.Fatal("expired insert committed")
		}
	})
}
