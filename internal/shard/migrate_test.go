package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eer"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/internal/wal"
	"repro/internal/workload"
)

func mtup(vals ...any) relation.Tuple {
	out := make(relation.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			out[i] = relation.Null()
		case string:
			out[i] = relation.NewString(x)
		default:
			panic("unsupported")
		}
	}
	return out
}

// fig3RouterSpec is the Fig-3 auto-applicable merge: the Prop. 5.2 cluster
// {OFFER, TEACH, ASSIST} merged around OFFER with every key copy removed.
var fig3RouterSpec = core.Spec{Cluster: []string{"OFFER", "TEACH", "ASSIST"}, Name: "OFFER+", KeyRelation: "OFFER"}

func fig3RouterMerge(t *testing.T) *core.MergedScheme {
	t.Helper()
	m, err := fig3RouterSpec.Derive(figures.Fig3())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return m
}

func TestRouterMigrateLive(t *testing.T) {
	r, err := Open(figures.Fig3(), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	pre := r.Snapshot()
	m := fig3RouterMerge(t)
	if err := r.Migrate(fig3RouterSpec); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	want := m.MapState(pre)
	if got := r.Snapshot(); !got.Equal(want) {
		t.Fatalf("post-migration union state:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := sdl.PrintSchema(r.Schema()); got != sdl.PrintSchema(m.Schema) {
		t.Fatalf("router schema did not move:\n%s", got)
	}
	// Merged relation answers through the router's hash placement.
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "OFFER+", mtup("c1")); !ok {
		t.Fatal("merged relation does not answer")
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "TEACH", mtup("c1")); ok {
		t.Fatal("pre-merge relation still answers")
	}
	// Writes enforce the new design's cross-shard dependencies: c9 is not a
	// COURSE anywhere.
	if err := r.InsertCtx(context.Background(), "OFFER+", mtup("c3", "math", "s1", nil)); err != nil {
		t.Fatalf("insert on merged design: %v", err)
	}
	if err := r.InsertCtx(context.Background(), "OFFER+", mtup("c9", "math", nil, nil)); err == nil {
		t.Fatal("dangling OFFER+ insert must violate the rewritten cross-shard IND")
	}
	// Refusals: open transaction, and specs that do not resolve on the
	// current design.
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := r.Migrate(fig3RouterSpec); !errors.Is(err, engine.ErrOpenTransaction) {
		t.Fatalf("migrate inside txn = %v", err)
	}
	if err := r.Rollback(); err != nil {
		t.Fatal(err)
	}
	// A spec naming a member the design lacks leaves state and design
	// untouched.
	before := r.Snapshot()
	if err := r.Migrate(core.Spec{Cluster: []string{"OFFER+", "NOPE"}, Name: "X"}); err == nil {
		t.Fatal("unresolvable spec must fail migration")
	}
	if got := r.Snapshot(); !got.Equal(before) {
		t.Fatal("failed migration changed state")
	}
	// The spec just applied is stale now: its cluster is gone from the
	// current design, so it is refused before any shard installs.
	if err := r.Migrate(fig3RouterSpec); err == nil {
		t.Fatal("stale spec must fail migration")
	}
	if got := sdl.PrintSchema(r.Schema()); got != sdl.PrintSchema(m.Schema) {
		t.Fatal("failed migration changed the design")
	}
}

// TestRouterMigrateShardLocalEta: η applied to each shard's own slice is η
// of the whole state, because the router places a row by its key value and a
// merge's members share their key values. Over fig3, star8 and chain6 at 200
// generated rows per relation and 2, 3, 4 and 7 shards, the union after
// Migrate equals MapState of the union before and satisfies the merged
// design, and a reopen adopts both.
func TestRouterMigrateShardLocalEta(t *testing.T) {
	type design struct {
		base *schema.Schema
		spec core.Spec
	}
	designs := map[string]design{"fig3": {figures.Fig3(), fig3RouterSpec}}
	for name, es := range map[string]*eer.Schema{"star8": workload.StarEER(8), "chain6": workload.ChainEER(6)} {
		s, err := translate.MS(es)
		if err != nil {
			t.Fatal(err)
		}
		designs[name] = design{s, core.Spec{Cluster: workload.MergeSetFor(s, "E0"), Name: "MERGED", KeyRelation: "E0"}}
	}
	for name, d := range designs {
		st := state.MustGenerate(d.base, rand.New(rand.NewSource(1)), state.GenOptions{Rows: 200})
		m, err := d.spec.Derive(d.base)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4, 7} {
			t.Run(fmt.Sprintf("%s/%d-shards", name, n), func(t *testing.T) {
				cfg := Config{Shards: n, WALDir: t.TempDir(), WALOpts: wal.Options{Policy: wal.SyncNever}}
				r, err := Open(d.base, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.LoadCtx(context.Background(), st); err != nil {
					t.Fatal(err)
				}
				want := m.MapState(r.Snapshot())
				if err := r.Migrate(d.spec); err != nil {
					t.Fatalf("Migrate: %v", err)
				}
				got := r.Snapshot()
				if !got.Equal(want) {
					t.Fatalf("union after per-shard η differs from η of the union:\ngot:\n%s\nwant:\n%s", got, want)
				}
				if err := state.Consistent(m.Schema, got); err != nil {
					t.Fatalf("migrated union inconsistent: %v", err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				r2, err := Open(d.base, cfg)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer r2.Close()
				if got := sdl.PrintSchema(r2.Schema()); got != sdl.PrintSchema(m.Schema) {
					t.Fatalf("reopen did not adopt the merged design:\n%s", got)
				}
				if got := r2.Snapshot(); !got.Equal(want) {
					t.Fatal("reopened union differs from η of the pre-migration union")
				}
			})
		}
	}
}

func TestRouterMigrateDurableAdoption(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 3, WALDir: dir, WALOpts: wal.Options{Policy: wal.SyncAlways}}
	r, err := Open(figures.Fig3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	m := fig3RouterMerge(t)
	if err := r.Migrate(fig3RouterSpec); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	want := r.Snapshot()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the ORIGINAL schema: every shard's log replays its
	// schema-change record, and the router must adopt the uniformly
	// recovered merged design.
	r2, err := Open(figures.Fig3(), cfg)
	if err != nil {
		t.Fatalf("reopen after migration: %v", err)
	}
	defer r2.Close()
	if got := sdl.PrintSchema(r2.Schema()); got != sdl.PrintSchema(m.Schema) {
		t.Fatalf("router did not adopt the recovered design:\n%s", got)
	}
	if got := r2.Snapshot(); !got.Equal(want) {
		t.Fatalf("recovered union state:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if _, ok, _ := r2.GetByKeyCtx(context.Background(), "OFFER+", mtup("c1")); !ok {
		t.Fatal("adopted design does not serve")
	}
	// Post-adoption writes validate against the adopted design.
	if err := r2.InsertCtx(context.Background(), "OFFER+", mtup("c9", "math", nil, nil)); err == nil {
		t.Fatal("dangling insert accepted after adoption")
	}
}

func TestRouterMixedRecoveredDesignsRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, WALDir: dir, WALOpts: wal.Options{Policy: wal.SyncAlways}}
	r, err := Open(figures.Fig3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	// Simulate a migration interrupted mid-rollout: migrate ONE shard's
	// engine directly, bypassing the router.
	if err := r.Shard(0).MigrateSchema(fig3RouterSpec); err != nil {
		t.Fatalf("direct shard migration: %v", err)
	}
	r.Close()

	if _, err := Open(figures.Fig3(), cfg); !errors.Is(err, engine.ErrRecovery) {
		t.Fatalf("mixed recovered designs = %v, want ErrRecovery", err)
	}
}

func TestRouterCoAccessAggregation(t *testing.T) {
	r, err := Open(figures.Fig3(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	// Drive each shard's fetch path directly so hop signals land on both.
	for i := 0; i < r.Shards(); i++ {
		for j := 0; j < 4; j++ {
			r.Shard(i).FetchWithReferences("TEACH", mtup("c1"))
			r.Shard(i).FetchWithReferences("TEACH", mtup("c2"))
		}
	}
	stats := r.CoAccessStats()
	var hop int64
	for _, e := range stats {
		if e.Left == "TEACH" && e.Right == "OFFER" {
			hop = e.Hits
		}
	}
	if hop == 0 {
		t.Fatalf("no aggregated TEACH->OFFER heat: %+v", stats)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Hits > stats[i-1].Hits {
			t.Fatal("aggregated stats not sorted hottest-first")
		}
	}
}
