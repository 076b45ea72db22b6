package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
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

func fig3RouterMerge(t *testing.T) *core.MergedScheme {
	t.Helper()
	m, err := core.MergeSet(figures.Fig3(), []string{"OFFER", "TEACH", "ASSIST"}, core.WithName("OFFER+"), core.WithKeyRelation("OFFER"))
	if err != nil {
		t.Fatalf("MergeSet: %v", err)
	}
	m.RemoveAll()
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
	if err := r.Migrate(m.Schema, func(st *state.DB) (*state.DB, error) { return m.MapState(st), nil }); err != nil {
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
	// Refusals: open transaction, and a transform whose output breaks the
	// new design's constraints.
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := r.Migrate(figures.Fig3(), nil); !errors.Is(err, engine.ErrOpenTransaction) {
		t.Fatalf("migrate inside txn = %v", err)
	}
	if err := r.Rollback(); err != nil {
		t.Fatal(err)
	}
	// A failing transform leaves state and design untouched.
	boom := func(*state.DB) (*state.DB, error) { return nil, fmt.Errorf("boom") }
	before := r.Snapshot()
	if err := r.Migrate(figures.Fig3(), boom); err == nil {
		t.Fatal("transform error must fail migration")
	}
	if got := r.Snapshot(); !got.Equal(before) {
		t.Fatal("failed migration changed state")
	}
	// A transform whose output violates the target design's constraints is
	// refused before any shard installs: inject a dangling OFFER+ row (c9 is
	// not a COURSE anywhere).
	bad := func(st *state.DB) (*state.DB, error) {
		out := st.Clone()
		out.Relation("OFFER+").Add(mtup("c9", "math", nil, nil))
		return out, nil
	}
	if err := r.Migrate(m.Schema, bad); err == nil {
		t.Fatal("constraint-violating mapped state must fail validation")
	}
	if got := sdl.PrintSchema(r.Schema()); got != sdl.PrintSchema(m.Schema) {
		t.Fatal("failed migration changed the design")
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
	if err := r.Migrate(m.Schema, func(st *state.DB) (*state.DB, error) { return m.MapState(st), nil }); err != nil {
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
	m := fig3RouterMerge(t)
	slice := state.New(m.Schema)
	if err := r.Shard(0).MigrateSchema(m.Schema, func(*state.DB) (*state.DB, error) { return slice, nil }); err != nil {
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
