package engine

import (
	"context"
	"testing"
)

func TestTransactionCommit(t *testing.T) {
	db := openFig3(t)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if !db.InTxn() {
		t.Fatal("InTxn")
	}
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Count("COURSE") != 1 || db.InTxn() {
		t.Error("commit should keep effects and close the transaction")
	}
}

func TestTransactionRollback(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c0"))
	before := db.Snapshot()

	db.Begin()
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "OFFER", tup("c1", "math"))
	db.DeleteCtx(context.Background(), "COURSE", tup("c0"))
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !db.Snapshot().Equal(before) {
		t.Errorf("rollback should restore the snapshot:\n%s\nvs\n%s", db.Snapshot(), before)
	}
	// Indexes stay coherent: re-inserting works, lookups agree.
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup("c0")); !ok {
		t.Error("c0 should be back")
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup("c1")); ok {
		t.Error("c1 should be gone")
	}
	if err := db.InsertCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Errorf("re-insert after rollback: %v", err)
	}
}

func TestTransactionRollbackUpdate(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("cs"))
	db.InsertCtx(context.Background(), "OFFER", tup("c1", "math"))
	before := db.Snapshot()

	db.Begin()
	if err := db.UpdateCtx(context.Background(), "OFFER", tup("c1"), tup("c1", "cs")); err != nil {
		t.Fatal(err)
	}
	db.Rollback()
	if !db.Snapshot().Equal(before) {
		t.Error("rollback should undo the update")
	}
}

func TestTransactionErrors(t *testing.T) {
	db := openFig3(t)
	if err := db.Commit(); err == nil {
		t.Error("commit without begin")
	}
	if err := db.Rollback(); err == nil {
		t.Error("rollback without begin")
	}
	db.Begin()
	if err := db.Begin(); err == nil {
		t.Error("nested begin")
	}
	db.Rollback()
}

// The batch-with-violation pattern the SYBASE triggers implement: the whole
// batch rolls back when a constraint fires mid-way.
func TestAtomicBatchWithConstraintViolation(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	before := db.Snapshot()

	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "OFFER", tup("c1", "math")); err != nil {
		t.Fatal(err)
	}
	// Dangling FK: fires the referential check.
	if err := db.InsertCtx(context.Background(), "TEACH", tup("c9", "p9")); err == nil {
		t.Fatal("batch should fail")
	}
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !db.Snapshot().Equal(before) {
		t.Error("failed batch must leave no partial effects")
	}
}
