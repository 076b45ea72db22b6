package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/translate"
	"repro/internal/workload"
)

func BenchmarkInsertDeclarative(b *testing.B) {
	// Figure 3's OFFER: NOT NULL + PK + two key-based FKs, all indexed.
	db := engine.MustOpen(figures.Fig3())
	for i := 0; i < 1024; i++ {
		db.InsertCtx(context.Background(), "COURSE", relation.Tuple{relation.NewString(fmt.Sprintf("c%d", i))})
	}
	db.InsertCtx(context.Background(), "DEPARTMENT", relation.Tuple{relation.NewString("math")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		course := fmt.Sprintf("c%d", i%1024)
		db.InsertCtx(context.Background(), "OFFER", relation.Tuple{relation.NewString(course), relation.NewString("math")})
		b.StopTimer()
		db.DeleteCtx(context.Background(), "OFFER", relation.Tuple{relation.NewString(course)})
		b.StartTimer()
	}
}

func BenchmarkInsertProcedural(b *testing.B) {
	// Figure 6's COURSE'': two null-existence constraints fire per insert.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		b.Fatal(err)
	}
	m.RemoveAll()
	db := engine.MustOpen(m.Schema)
	db.InsertCtx(context.Background(), "DEPARTMENT", relation.Tuple{relation.NewString("math")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := relation.NewString(fmt.Sprintf("c%d", i))
		tup := relation.Tuple{key, relation.NewString("math"), relation.Null(), relation.Null()}
		if err := db.InsertCtx(context.Background(), "COURSE''", tup); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.DeleteCtx(context.Background(), "COURSE''", relation.Tuple{key})
		b.StartTimer()
	}
}

func BenchmarkGetByKey(b *testing.B) {
	db := engine.MustOpen(figures.Fig3())
	for i := 0; i < 4096; i++ {
		db.InsertCtx(context.Background(), "COURSE", relation.Tuple{relation.NewString(fmt.Sprintf("c%d", i))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.GetByKeyCtx(context.Background(), "COURSE", relation.Tuple{relation.NewString(fmt.Sprintf("c%d", i%4096))})
	}
}

func BenchmarkFetchWithReferences(b *testing.B) {
	db := engine.MustOpen(figures.Fig3())
	db.InsertCtx(context.Background(), "COURSE", relation.Tuple{relation.NewString("c1")})
	db.InsertCtx(context.Background(), "DEPARTMENT", relation.Tuple{relation.NewString("math")})
	db.InsertCtx(context.Background(), "PERSON", relation.Tuple{relation.NewString("p1")})
	db.InsertCtx(context.Background(), "FACULTY", relation.Tuple{relation.NewString("p1")})
	db.InsertCtx(context.Background(), "OFFER", relation.Tuple{relation.NewString("c1"), relation.NewString("math")})
	db.InsertCtx(context.Background(), "TEACH", relation.Tuple{relation.NewString("c1"), relation.NewString("p1")})
	key := relation.Tuple{relation.NewString("c1")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.FetchWithReferences("TEACH", key); err != nil {
			b.Fatal(err)
		}
	}
}

// chainN is the depth of the merged chain design the write benchmarks and
// allocation ceilings run on: workload.ChainEER(6) merged around E0 with the
// key copies removed — one relation MERGED(E0.ID, R1.T1.ID … R6.T6.ID), six
// foreign keys with an index each, and the procedural null-existence chain
// Ri.Ti.ID ⊑ R(i-1).T(i-1).ID. It is relbench's durable-write-chain design.
const chainN = 6

// mergedChain is an engine on that design plus what it takes to make rows.
type mergedChain struct {
	db      *engine.DB
	targets int
	rng     *rand.Rand
}

// openMergedChain loads `targets` rows into every Ti and `rows` merged rows
// ("e-<k>") of random chain depth into an engine opened with opts.
func openMergedChain(tb testing.TB, rows, targets int, opts ...engine.Option) *mergedChain {
	tb.Helper()
	base, err := translate.MS(workload.ChainEER(chainN))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.Merge(base, workload.MergeSetFor(base, "E0"), "MERGED")
	if err != nil {
		tb.Fatal(err)
	}
	m.RemoveAll()
	c := &mergedChain{db: engine.MustOpen(m.Schema, opts...), targets: targets, rng: rand.New(rand.NewSource(1))}
	for i := 1; i <= chainN; i++ {
		ts := make([]relation.Tuple, targets)
		for j := range ts {
			ts[j] = relation.Tuple{relation.NewString(fmt.Sprintf("t%d-%d", i, j))}
		}
		if err := c.db.InsertBatchCtx(context.Background(), fmt.Sprintf("T%d", i), ts); err != nil {
			tb.Fatal(err)
		}
	}
	merged := make([]relation.Tuple, rows)
	for k := range merged {
		merged[k] = c.row(fmt.Sprintf("e-%d", k), c.rng.Intn(chainN+1))
	}
	if err := c.db.InsertBatchCtx(context.Background(), "MERGED", merged); err != nil {
		tb.Fatal(err)
	}
	return c
}

// row builds a merged row whose chain is set down to depth and null below.
func (c *mergedChain) row(key string, depth int) relation.Tuple {
	t := make(relation.Tuple, chainN+1)
	t[0] = relation.NewString(key)
	for i := 1; i <= depth; i++ {
		t[i] = relation.NewString(fmt.Sprintf("t%d-%d", i, c.rng.Intn(c.targets)))
	}
	return t
}

// BenchmarkWriteMergedChain is the write side of the paper's trade: one
// logical row carries every index of the merged cluster. Ops cycle insert ×3,
// update ×2 (to another depth), delete ×1 over 20 000 rows; run it with
// -benchmem, or through `make allocs` for the allocation profile.
func BenchmarkWriteMergedChain(b *testing.B) {
	const rows = 20000
	c, ctx := openMergedChain(b, rows, 1024), context.Background()
	live := make([]string, rows)
	for k := range live {
		live[k] = fmt.Sprintf("e-%d", k)
	}
	type op struct {
		kind int
		key  relation.Tuple
		row  relation.Tuple
	}
	ops := make([]op, b.N)
	for i := range ops {
		switch i % 6 {
		case 0, 1, 2:
			key := fmt.Sprintf("n-%d", i)
			live = append(live, key)
			ops[i] = op{kind: 0, row: c.row(key, c.rng.Intn(chainN+1))}
		case 3, 4:
			key := live[c.rng.Intn(len(live))]
			ops[i] = op{kind: 1, key: relation.Tuple{relation.NewString(key)}, row: c.row(key, c.rng.Intn(chainN+1))}
		default:
			j := c.rng.Intn(len(live))
			ops[i] = op{kind: 2, key: relation.Tuple{relation.NewString(live[j])}}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, o := range ops {
		var err error
		switch o.kind {
		case 0:
			err = c.db.InsertCtx(ctx, "MERGED", o.row)
		case 1:
			err = c.db.UpdateCtx(ctx, "MERGED", o.key, o.row)
		default:
			err = c.db.DeleteCtx(ctx, "MERGED", o.key)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
