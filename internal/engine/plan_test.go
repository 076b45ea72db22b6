package engine

import (
	"context"
	"testing"

	"repro/internal/figures"
	"repro/internal/relation"
)

// TestRedundantKeyIndexDropped: a dependency whose referencing attributes are
// the referencing table's own primary key gets no secondary index — the pk
// index answers its restrict probe — and the probe still restricts.
func TestRedundantKeyIndexDropped(t *testing.T) {
	db := MustOpen(figures.Fig3())
	// OFFER[O.C.NR] ⊆ COURSE[C.NR] with O.C.NR the key of OFFER; its other
	// dependency, OFFER[O.D.NAME] ⊆ DEPARTMENT[D.NAME], does need an index.
	offer := db.bind.tables["OFFER"]
	if len(offer.sec) != 1 || offer.prog.Hdr.Attrs()[offer.sec[0][0]] != "O.D.NAME" {
		t.Fatalf("OFFER should carry exactly the index on O.D.NAME, has %v", offer.sec)
	}
	var onKey *indPlan
	for _, ip := range offer.out {
		if ip.right.name == "COURSE" {
			onKey = ip
		}
	}
	if onKey == nil || onKey.leftSlot != pkSlot {
		t.Fatalf("OFFER[O.C.NR] ⊆ COURSE[C.NR] should be answered by the pk index, plan %+v", onKey)
	}
	for _, ins := range []struct {
		rel string
		row relation.Tuple
	}{{"COURSE", tup("c1")}, {"DEPARTMENT", tup("math")}, {"OFFER", tup("c1", "math")}} {
		if err := db.InsertCtx(context.Background(), ins.rel, ins.row); err != nil {
			t.Fatal(err)
		}
	}
	before := db.StatsTotals()
	err := db.DeleteCtx(context.Background(), "COURSE", tup("c1"))
	if cv, ok := err.(*ConstraintViolation); !ok || cv.Kind != RestrictViolation {
		t.Fatalf("deleting a referenced COURSE = %v, want a restrict violation", err)
	}
	if got := db.StatsTotals().Sub(before).IndexLookups; got != 1 {
		t.Errorf("the restrict probe cost %d index lookups, want 1", got)
	}
	c1 := tup("c1").AppendKey(nil)
	if n := db.Referencing(onKey.IND, c1, nil); n != 1 {
		t.Errorf("Referencing through the pk index = %d, want 1", n)
	}
	if n := db.Referencing(onKey.IND, c1, map[string]bool{string(c1): true}); n != 0 {
		t.Errorf("Referencing through the pk index, its one row pending delete = %d, want 0", n)
	}
	if err := db.DeleteCtx(context.Background(), "OFFER", tup("c1")); err != nil {
		t.Fatal(err)
	}
	if n := db.Referencing(onKey.IND, c1, nil); n != 0 {
		t.Errorf("Referencing after the delete = %d, want 0", n)
	}
	if err := db.DeleteCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatalf("deleting an unreferenced COURSE: %v", err)
	}
}
