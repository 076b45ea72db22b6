package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/relation"
)

// endWhileQueued runs call while the test itself holds the writer mutex,
// ends call's context once call is queued behind the mutex, and only then
// releases it — so call's entry check saw a live context and its
// post-acquisition re-check sees an ended one, with no timing involved.
func endWhileQueued(t *testing.T, db *DB, call func(ctx context.Context) error) error {
	t.Helper()
	db.lockWriter()
	acquired := db.m.lockAcquisitions.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- call(ctx) }()
	// lockWriter counts before it blocks: a moved counter means call is past
	// its entry check and waiting on the held mutex.
	for giveUp := time.Now().Add(10 * time.Second); db.m.lockAcquisitions.Value() == acquired; {
		if time.Now().After(giveUp) {
			db.wmu.Unlock()
			t.Fatal("contender never reached the held writer mutex")
		}
		runtime.Gosched()
	}
	cancel()
	db.wmu.Unlock()
	return <-done
}

// A context that ends while an op is queued behind another writer must abort
// the op after it gets the writer mutex, not commit it. Regression test
// for the entry-only cancellation check, which let the queued op's ended
// context slip through to commit.
func TestCtxExpiredUnderContendedLockDoesNotCommit(t *testing.T) {
	db, err := Open(figures.Fig3())
	if err != nil {
		t.Fatal(err)
	}
	insErr := endWhileQueued(t, db, func(ctx context.Context) error {
		return db.InsertCtx(ctx, "COURSE", tup("late"))
	})
	if !errors.Is(insErr, context.Canceled) {
		t.Fatalf("InsertCtx under ended context: got %v, want Canceled", insErr)
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup("late")); ok {
		t.Fatal("insert with an ended context still committed")
	}
	// The mutex was released: the next writer goes through.
	if err := db.InsertCtx(context.Background(), "COURSE", tup("next")); err != nil {
		t.Fatalf("insert after release: %v", err)
	}
}

// Every mutating Ctx op re-checks cancellation once it holds the writer mutex.
func TestCtxExpiredAfterAcquisitionAllOps(t *testing.T) {
	db, err := Open(figures.Fig3())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatal(err)
	}

	ops := []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"InsertCtx", func(ctx context.Context) error { return db.InsertCtx(ctx, "COURSE", tup("c2")) }},
		{"DeleteCtx", func(ctx context.Context) error { return db.DeleteCtx(ctx, "COURSE", tup("c1")) }},
		{"UpdateCtx", func(ctx context.Context) error { return db.UpdateCtx(ctx, "COURSE", tup("c1"), tup("c9")) }},
		{"InsertBatchCtx", func(ctx context.Context) error {
			return db.InsertBatchCtx(ctx, "COURSE", []relation.Tuple{tup("c2"), tup("c3")})
		}},
		{"ApplyBatchCtx", func(ctx context.Context) error {
			return db.ApplyBatchCtx(ctx, []BatchOp{Ins("COURSE", tup("c2"))})
		}},
	}
	for _, op := range ops {
		op := op
		t.Run(op.name, func(t *testing.T) {
			err := endWhileQueued(t, db, op.call)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: got %v, want Canceled", op.name, err)
			}
			for _, gone := range []string{"c2", "c3", "c9"} {
				if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup(gone)); ok {
					t.Fatalf("%s: op committed %s despite its ended context", op.name, gone)
				}
			}
			if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup("c1")); !ok {
				t.Fatalf("%s: pre-existing tuple disturbed", op.name)
			}
		})
	}
}

// GetByKeyCtx honors cancellation and reports unknown relations as typed
// errors (GetByKey keeps its historical not-found signature).
func TestGetByKeyCtx(t *testing.T) {
	db, err := Open(figures.Fig3())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.GetByKeyCtx(context.Background(), "NOPE", tup("x")); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation: got %v", err)
	}
	got, ok, err := db.GetByKeyCtx(context.Background(), "COURSE", tup("c1"))
	if err != nil || !ok || !got.Identical(tup("c1")) {
		t.Fatalf("lookup: %v %v %v", got, ok, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.GetByKeyCtx(ctx, "COURSE", tup("c1")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lookup: got %v", err)
	}
}
