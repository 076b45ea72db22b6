package relmerge_test

import (
	"context"
	"errors"
	"testing"

	"repro/pkg/relmerge"
)

// The facade stands up an engine from the figure 3 state, serves lookups, and
// applies batched mutations atomically — all without importing internal/.
func TestFacadeEngine(t *testing.T) {
	reg := relmerge.NewRegistry()
	e, err := relmerge.ReplayCtx(context.Background(), relmerge.Fig3(), relmerge.Fig3State(),
		relmerge.WithEngineRegistry(reg), relmerge.WithEngineName("base"))
	if err != nil {
		t.Fatal(err)
	}
	key := relmerge.Tuple{relmerge.NewString("c1")}
	if _, ok, _ := e.GetByKeyCtx(context.Background(), "COURSE", key); !ok {
		t.Fatal("replayed engine is missing COURSE c1")
	}

	// One atomic batch: a fresh course plus its offering. The insert order
	// matters to the foreign keys and the batch preserves it.
	err = e.ApplyBatchCtx(context.Background(), []relmerge.BatchOp{
		relmerge.Ins("COURSE", relmerge.Tuple{relmerge.NewString("c9")}),
		relmerge.Ins("OFFER", relmerge.Tuple{relmerge.NewString("c9"), relmerge.NewString("math")}),
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if _, ok, _ := e.GetByKeyCtx(context.Background(), "OFFER", relmerge.Tuple{relmerge.NewString("c9")}); !ok {
		t.Error("batched OFFER row did not land")
	}

	// A violation anywhere rolls the whole batch back.
	before := e.Count("COURSE")
	err = e.ApplyBatchCtx(context.Background(), []relmerge.BatchOp{
		relmerge.Ins("COURSE", relmerge.Tuple{relmerge.NewString("c10")}),
		relmerge.Ins("OFFER", relmerge.Tuple{relmerge.NewString("c10"), relmerge.NewString("no-such-dept")}),
	})
	var cv *relmerge.ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("bad batch error = %v, want a ConstraintViolation", err)
	}
	if got := e.Count("COURSE"); got != before {
		t.Errorf("failed batch leaked a COURSE row: %d -> %d", before, got)
	}

	// The facade's stats are the shared registry's series.
	totals := e.StatsTotals()
	var regLookups int
	for _, p := range relmerge.Snapshot(reg) {
		if p.Name == "engine.lookups" && p.Labels["db"] == "base" {
			regLookups = int(p.Value)
		}
	}
	if totals.Lookups != regLookups {
		t.Errorf("facade stats drifted from registry: Totals().Lookups=%d, series=%d",
			totals.Lookups, regLookups)
	}
}
