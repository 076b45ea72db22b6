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
// the counts are exact): a point lookup — the key is encoded on the stack and
// probed as bytes; the one allocation is the co-access detector boxing the
// relation name it remembers (noteFetch) — and an insert into R1: two
// inclusion-dependency probes and two index edits, the primary key's and the
// foreign key R1.T1.ID's (R1.E0.ID is R1's own primary key and has no index
// of its own), one publish.
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

	const getBudget, insertBudget = 64, 1270 // 1 and 19.8 per operation
	if gets > getBudget {
		t.Errorf("%d GetByKeyCtx allocate %.0f, budget %d", ops, gets, getBudget)
	}
	if inserts > insertBudget {
		t.Errorf("%d InsertCtx allocate %.0f, budget %d", ops, inserts, insertBudget)
	}
}

// TestAllocBudgetMergedChain pins the same for the design the write-path
// claim is made on — the merged ChainEER(6) relation (bench_test.go), 4 096
// rows, 64 fixed operations of each kind: an insert at full chain depth
// (procedural null-existence checks, six foreign-key probes, seven index
// edits, one publish), and an update that keeps the key and cuts the chain to
// depth 3 (every index edited on the way out, four again on the way in).
func TestAllocBudgetMergedChain(t *testing.T) {
	const ops, runs = 64, 4
	c, ctx := openMergedChain(t, 4096, 32), context.Background()
	rows := make([]relation.Tuple, (runs+1)*ops)
	cut := make([]relation.Tuple, len(rows))
	for i := range rows {
		rows[i] = c.row(fmt.Sprintf("fresh-%04d", i), chainN)
		cut[i] = append(rows[i][:4:4], make(relation.Tuple, chainN-3)...)
	}
	next := 0
	inserts := testing.AllocsPerRun(runs, func() {
		for _, row := range rows[next : next+ops] {
			if err := c.db.InsertCtx(ctx, "MERGED", row); err != nil {
				t.Fatal(err)
			}
		}
		next += ops
	})
	next = 0
	updates := testing.AllocsPerRun(runs, func() {
		for _, row := range cut[next : next+ops] {
			if err := c.db.UpdateCtx(ctx, "MERGED", row[:1], row); err != nil {
				t.Fatal(err)
			}
		}
		next += ops
	})
	const insertBudget, updateBudget = 2977, 3477 // 46.5 and 54.3 per operation (183.8 and 219.3 before the write plan)
	if inserts > insertBudget {
		t.Errorf("%d InsertCtx allocate %.0f, budget %d", ops, inserts, insertBudget)
	}
	if updates > updateBudget {
		t.Errorf("%d UpdateCtx allocate %.0f, budget %d", ops, updates, updateBudget)
	}
}
