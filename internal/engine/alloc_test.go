package engine_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestAllocBudget pins what the engine's two hot operations allocate on the
// unmerged star design (workload.StarEER(8), 1 024 objects in every
// relationship), as totals over 64 fixed operations (inputs are fixed, so
// the counts are exact): a point lookup, and an insert into R1 — two
// inclusion-dependency probes, one primary-key and one foreign-key index
// path copy, one publish.
func TestAllocBudget(t *testing.T) {
	const objects, targets, ops, runs = 1024, 32, 64, 4
	base, err := translate.MS(workload.StarEER(8))
	if err != nil {
		t.Fatal(err)
	}
	db, ctx := engine.MustOpen(base), context.Background()
	insert := func(rel string, vals ...string) {
		t.Helper()
		row := make(relation.Tuple, len(vals))
		for i, v := range vals {
			row[i] = relation.NewString(v)
		}
		if err := db.InsertCtx(ctx, rel, row); err != nil {
			t.Fatal(err)
		}
	}
	target := func(i int) string { return fmt.Sprintf("t-%02d", i%targets) }
	for r := 1; r <= 8; r++ {
		for i := 0; i < targets; i++ {
			insert(fmt.Sprintf("T%d", r), target(i))
		}
	}
	keys := make([]relation.Tuple, ops)
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("e-%04d", i)
		insert("E0", id)
		for r := 1; r <= 8; r++ {
			insert(fmt.Sprintf("R%d", r), id, target(i))
		}
		if i < ops {
			keys[i] = relation.Tuple{relation.NewString(id)}
		}
	}

	gets := testing.AllocsPerRun(runs, func() {
		for _, k := range keys {
			if _, ok, err := db.GetByKeyCtx(ctx, "E0", k); err != nil || !ok {
				t.Fatalf("lookup of %v: ok=%v err=%v", k, ok, err)
			}
		}
	})

	// AllocsPerRun calls its function runs+1 times; every call needs fresh
	// objects of its own to relate.
	rows := make([]relation.Tuple, (runs+1)*ops)
	for i := range rows {
		id := fmt.Sprintf("fresh-%04d", i)
		insert("E0", id)
		rows[i] = relation.Tuple{relation.NewString(id), relation.NewString(target(i))}
	}
	next := 0
	inserts := testing.AllocsPerRun(runs, func() {
		for _, row := range rows[next : next+ops] {
			if err := db.InsertCtx(ctx, "R1", row); err != nil {
				t.Fatal(err)
			}
		}
		next += ops
	})

	const getBudget, insertBudget = 192, 4148 // 3 and 64.8 per operation
	if gets > getBudget {
		t.Errorf("%d GetByKeyCtx allocate %.0f, budget %d", ops, gets, getBudget)
	}
	if inserts > insertBudget {
		t.Errorf("%d InsertCtx allocate %.0f, budget %d", ops, inserts, insertBudget)
	}
}
