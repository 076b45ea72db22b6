package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/wal"
)

// The writer stages every operation in structures it keeps from one
// operation to the next (DB.wtx, DB.recBuf, the log's frame buffer). These
// tests hold the reuse to its one rule: nothing an operation staged — and
// nothing a refused or aborted one staged — reaches the next.

// lastOps decodes the newest record of db's log, which must be an op record.
func lastOps(t *testing.T, db *DB) []walOp {
	t.Helper()
	recs, _, err := db.ReplRead(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("the log holds no record")
	}
	kind, ops, _, err := decodeWalRecord(recs[len(recs)-1].Payload)
	if err != nil || kind != walRecOp {
		t.Fatalf("newest record: kind %d, %v", kind, err)
	}
	return ops
}

// sameState fails unless db's current state and index counts are those of
// a fresh engine that ran only the given inserts.
func sameState(t *testing.T, db *DB, inserts [][2]any) {
	t.Helper()
	ref := MustOpen(db.Schema)
	for _, in := range inserts {
		if err := ref.InsertCtx(context.Background(), in[0].(string), in[1].(relation.Tuple)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := db.Snapshot(), ref.Snapshot(); !got.Equal(want) {
		t.Fatalf("state:\n%s\nwant:\n%s", got, want)
	}
	if _, err := IndexCounts(db); err != nil {
		t.Fatal(err)
	}
	for _, tb := range db.bind.ordered {
		if got, want := db.current.Load().tables[tb.ord].sec.Len(), ref.current.Load().tables[tb.ord].sec.Len(); got != want {
			t.Fatalf("%s counts %d slot values, want %d", tb.name, got, want)
		}
	}
}

func TestAbortedBatchLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	db, err := Open(figures.Fig3(), WithDurability(t.TempDir(), wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := [][2]any{{"COURSE", tup("c1")}, {"COURSE", tup("c2")}, {"DEPARTMENT", tup("d1")}}
	for _, in := range base {
		if err := db.InsertCtx(ctx, in[0].(string), in[1].(relation.Tuple)); err != nil {
			t.Fatal(err)
		}
	}
	// The aborted batch writes three tables, both index kinds of OFFER, and
	// removes a row the next insert does not touch.
	s, err := db.StageBatchCtx(ctx, []BatchOp{
		Ins("DEPARTMENT", tup("d2")),
		Ins("OFFER", tup("c1", "d2")),
		Ins("OFFER", tup("c2", "d1")),
		Del("COURSE", tup("c1")),
	})
	if err == nil {
		t.Fatal("deleting c1 under its OFFER row must be refused")
	}
	s, err = db.StageBatchCtx(ctx, []BatchOp{
		Ins("DEPARTMENT", tup("d2")),
		Ins("OFFER", tup("c1", "d2")),
		Upd("COURSE", tup("c2"), tup("c3")),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if err := db.InsertCtx(ctx, "OFFER", tup("c2", "d1")); err != nil {
		t.Fatal(err)
	}
	sameState(t, db, append(base, [2]any{"OFFER", tup("c2", "d1")}))
	ops := lastOps(t, db)
	if len(ops) != 1 || ops[0].rel != "OFFER" || !ops[0].insert || !ops[0].tup.Identical(tup("c2", "d1")) {
		t.Fatalf("the insert's record holds %+v", ops)
	}
}

func TestRefusedOpPublishesNothing(t *testing.T) {
	ctx := context.Background()
	db, err := Open(figures.Fig3(), WithDurability(t.TempDir(), wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := [][2]any{{"COURSE", tup("c1")}, {"DEPARTMENT", tup("d1")}, {"OFFER", tup("c1", "d1")}, {"PERSON", tup("p1")}}
	for _, in := range base {
		if err := db.InsertCtx(ctx, in[0].(string), in[1].(relation.Tuple)); err != nil {
			t.Fatal(err)
		}
	}
	// An insert refused before it stages anything; the rest after staging:
	// an update's removal of its old row, the first rows of two batches.
	refused := []func() error{
		func() error { return db.InsertCtx(ctx, "OFFER", tup("c9", "d1")) },
		func() error { return db.UpdateCtx(ctx, "DEPARTMENT", tup("d1"), tup("d2")) },
		func() error {
			return db.ApplyBatchCtx(ctx, []BatchOp{Ins("COURSE", tup("c2")), Ins("OFFER", tup("c2", "d1")), Ins("OFFER", tup("c2", "d1"))})
		},
		func() error { return db.InsertBatchCtx(ctx, "FACULTY", []relation.Tuple{tup("p1"), tup("p2")}) },
	}
	for i, op := range refused {
		lsn := db.VersionLSN()
		if err := op(); !errors.Is(err, ErrConstraintViolation) {
			t.Fatalf("op %d: %v, want a constraint violation", i, err)
		}
		if err := db.InsertCtx(ctx, "STUDENT", tup("p1")); err != nil {
			t.Fatal(err)
		}
		if got := db.VersionLSN(); got != lsn+1 {
			t.Fatalf("op %d: the accepted insert moved the version from LSN %d to %d", i, lsn, got)
		}
		ops := lastOps(t, db)
		if len(ops) != 1 || ops[0].rel != "STUDENT" {
			t.Fatalf("op %d: the accepted insert's record holds %+v", i, ops)
		}
		sameState(t, db, append(base, [2]any{"STUDENT", tup("p1")}))
		if err := db.DeleteCtx(ctx, "STUDENT", tup("p1")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBulkBuffersNotKept: a 20 000-row batch leaves neither its record
// buffer nor, once the next operation began, its effects list with the
// writer; the log's frame buffer is wal's own test (TestFrameBufferCap).
func TestBulkBuffersNotKept(t *testing.T) {
	ctx := context.Background()
	db, err := Open(figures.Fig3(), WithDurability(t.TempDir(), wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows := make([]relation.Tuple, 20000)
	for i := range rows {
		rows[i] = tup(fmt.Sprintf("course-%05d", i))
	}
	if err := db.InsertBatchCtx(ctx, "COURSE", rows); err != nil {
		t.Fatal(err)
	}
	if c := cap(db.recBuf); c > keepBuf {
		t.Errorf("the record buffer keeps %d B after the batch, cap %d", c, keepBuf)
	}
	if err := db.InsertCtx(ctx, "DEPARTMENT", tup("d1")); err != nil {
		t.Fatal(err)
	}
	if c := cap(db.wtx.eff); c > keepEffects {
		t.Errorf("the effects list keeps room for %d ops after the next insert, cap %d", c, keepEffects)
	}
	if c := cap(db.recBuf); c == 0 || c > keepBuf {
		t.Errorf("the record buffer keeps %d B after a small insert, want 1 to %d", c, keepBuf)
	}
}

// TestSlotsKeepValuesApart: one table's secondary slots share one counted
// index, each value under its slot's prefix, so a value one slot carries is
// not carried by another. CHILD's A and B reference different parents that
// hold the same value: deleting Q's x must not see CHILD's A = x.
func TestSlotsKeepValuesApart(t *testing.T) {
	ctx := context.Background()
	s := schema.New()
	s.AddScheme(schema.NewScheme("P", []schema.Attribute{{Name: "P.K", Domain: "d"}}, []string{"P.K"}))
	s.AddScheme(schema.NewScheme("Q", []schema.Attribute{{Name: "Q.K", Domain: "d"}}, []string{"Q.K"}))
	s.AddScheme(schema.NewScheme("CHILD",
		[]schema.Attribute{{Name: "C.K", Domain: "k"}, {Name: "C.A", Domain: "d"}, {Name: "C.B", Domain: "d"}},
		[]string{"C.K"}))
	s.INDs = []schema.IND{
		schema.NewIND("CHILD", []string{"C.A"}, "P", []string{"P.K"}),
		schema.NewIND("CHILD", []string{"C.B"}, "Q", []string{"Q.K"}),
	}
	db := MustOpen(s)
	for _, in := range []struct {
		rel string
		row relation.Tuple
	}{{"P", tup("x")}, {"Q", tup("x")}, {"Q", tup("y")}, {"CHILD", tup("c1", "x", "y")}} {
		if err := db.InsertCtx(ctx, in.rel, in.row); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(db.bind.tables["CHILD"].sec); n != 2 {
		t.Fatalf("CHILD has %d secondary slots, want 2", n)
	}
	if err := db.DeleteCtx(ctx, "Q", tup("x")); err != nil {
		t.Fatalf("no CHILD row carries B = x: %v", err)
	}
	if err := db.DeleteCtx(ctx, "P", tup("x")); !errors.Is(err, ErrConstraintViolation) {
		t.Fatalf("CHILD c1 carries A = x, delete of P x: %v", err)
	}
	if err := db.DeleteCtx(ctx, "Q", tup("y")); !errors.Is(err, ErrConstraintViolation) {
		t.Fatalf("CHILD c1 carries B = y, delete of Q y: %v", err)
	}
	if _, err := IndexCounts(db); err != nil {
		t.Fatal(err)
	}
}

// TestTooManySlotsRefused: a slot is one byte of the index key, so a table
// whose dependencies need more than 256 secondary indexes is refused at bind
// with a typed error; 256 still open.
func TestTooManySlotsRefused(t *testing.T) {
	for _, n := range []int{maxSlots, maxSlots + 1} {
		s := schema.New()
		s.AddScheme(schema.NewScheme("P", []schema.Attribute{{Name: "P.K", Domain: "d"}}, []string{"P.K"}))
		attrs := []schema.Attribute{{Name: "C.K", Domain: "k"}}
		for i := 0; i < n; i++ {
			a := fmt.Sprintf("C.A%03d", i)
			attrs = append(attrs, schema.Attribute{Name: a, Domain: "d"})
			s.INDs = append(s.INDs, schema.NewIND("C", []string{a}, "P", []string{"P.K"}))
		}
		s.AddScheme(schema.NewScheme("C", attrs, []string{"C.K"}))
		_, err := Open(s)
		switch {
		case n <= maxSlots && err != nil:
			t.Fatalf("%d slots: %v", n, err)
		case n > maxSlots && !errors.Is(err, ErrTooManyIndexes):
			t.Fatalf("%d slots: %v, want ErrTooManyIndexes", n, err)
		case n > maxSlots && !strings.Contains(err.Error(), "C needs 257"):
			t.Fatalf("%d slots: %v does not name the table and count", n, err)
		}
	}
}
