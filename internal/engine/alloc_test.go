package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/translate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestAllocBudget pins what the engine's two hot operations allocate on the
// unmerged star design (workload.StarEER(8), 1 024 objects in every
// relationship), as totals over 64 fixed operations (inputs are fixed, so
// the counts are exact): a point lookup — the key is encoded on the stack and
// probed as bytes, and the co-access detector remembers a table pointer, so
// nothing is allocated — and an insert into R1: two inclusion-dependency
// probes and two index edits, the primary key's and R1's counted index
// (R1.E0.ID is R1's own primary key and has no slot of its own), one
// publish. The insert stages into the writer's own reused structures, so it
// allocates the version it publishes, the HAMT path copies and the key it
// stores.
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

	// 0 and 10.8 per operation (1 and 17.8 with per-op staging, a boxed
	// co-access name and a header per index; 19.8 with a list of rows per
	// indexed value).
	const getBudget, insertBudget = 0, 694
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
// (procedural null-existence checks, six foreign-key probes, the pk index
// and six slots of the one counted index edited, one publish), and an
// update that keeps the key and cuts the chain to depth 3 (every slot
// edited on the way out, three again on the way in). Each
// kind also has a ceiling in bytes: a secondary-index edit changes a count,
// and an edit that copied a list of rows would blow it long before the
// allocation count moved much.
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
	inserts, insertBytes := allocsAndBytes(runs, func() {
		for _, row := range rows[next : next+ops] {
			if err := c.db.InsertCtx(ctx, "MERGED", row); err != nil {
				t.Fatal(err)
			}
		}
		next += ops
	})
	next = 0
	updates, updateBytes := allocsAndBytes(runs, func() {
		for _, row := range cut[next : next+ops] {
			if err := c.db.UpdateCtx(ctx, "MERGED", row[:1], row); err != nil {
				t.Fatal(err)
			}
		}
		next += ops
	})
	// 22.0 and 21.8 per operation (34.5 and 36.3 with per-op staging and
	// one counted index per slot, 46.5 and 54.3 with a list of rows per
	// indexed value, 183.8 and 219.3 before the write plan).
	const insertBudget, updateBudget = 1410, 1398
	// 2 630 and 2 740 B per operation, 1 % above what they allocate (3 950
	// and 4 190 B with per-op staging and one counted index per slot, 12 112
	// and 17 810 B with a list of rows per indexed value: 128 rows carry each
	// chain value here).
	const insertByteBudget, updateByteBudget = 64 * 2630, 64 * 2740
	if inserts > insertBudget {
		t.Errorf("%d InsertCtx allocate %.0f, budget %d", ops, inserts, insertBudget)
	}
	if updates > updateBudget {
		t.Errorf("%d UpdateCtx allocate %.0f, budget %d", ops, updates, updateBudget)
	}
	if insertBytes > insertByteBudget {
		t.Errorf("%d InsertCtx allocate %.0f B, budget %d B", ops, insertBytes, insertByteBudget)
	}
	if updateBytes > updateByteBudget {
		t.Errorf("%d UpdateCtx allocate %.0f B, budget %d B", ops, updateBytes, updateByteBudget)
	}
}

// TestCheckpointAllocBudget pins what a checkpoint of the merged chain
// allocates, at 5 000 and at 20 000 rows: the payload is sized before it is
// written and every row is appended to it straight off the primary-key
// index, so neither count grows with the rows.
func TestCheckpointAllocBudget(t *testing.T) {
	const runs = 4
	for _, rows := range []int{5000, 20000} {
		c := openMergedChain(t, rows, 32, engine.WithDurability(t.TempDir(), wal.SyncNever))
		encode := testing.AllocsPerRun(runs, func() { engine.CheckpointPayload(c.db) })
		whole := testing.AllocsPerRun(runs, func() {
			if err := c.db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		if err := c.db.Close(); err != nil {
			t.Fatal(err)
		}
		// Encoding the payload is one allocation at either size. The whole
		// checkpoint allocated 36 538 times at 5 000 rows and 141 648 at
		// 20 000 when it printed the state as text; now 34 or 35 (up to 39
		// under -race). The rest is the log's file handling, whose fmt and
		// os calls draw on sync.Pools that a GC empties and a -race build
		// drops from at random: its ceiling leaves room for that.
		const encodeBudget, wholeBudget = 1, 40
		if encode > encodeBudget {
			t.Errorf("encoding a checkpoint of %d merged rows allocates %.0f, budget %d", rows, encode, encodeBudget)
		}
		if whole > wholeBudget {
			t.Errorf("a checkpoint of %d merged rows allocates %.0f, budget %d", rows, whole, wholeBudget)
		}
	}
}

// allocsAndBytes is testing.AllocsPerRun that also returns the bytes an
// average call allocates (the runtime's TotalAlloc over every call, the
// warm-up call included).
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
}
