package relmerge_test

import (
	"context"
	"errors"
	"testing"

	"repro/pkg/relmerge"
)

// The facade exercises the paper's main pipeline end to end without touching
// internal packages: figure 3 in, COURSE” merge, key-copy removal, state
// round trip, and an observability trace.
func TestFacadePipeline(t *testing.T) {
	s := relmerge.Fig3()
	tr := relmerge.NewTracer()
	m, err := relmerge.MergeCtx(context.Background(), s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"},
		relmerge.WithName("COURSE''"), relmerge.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if m.KeyRelation != "COURSE" {
		t.Errorf("key-relation = %q, want COURSE", m.KeyRelation)
	}
	if removed := m.RemoveAll(relmerge.WithTrace(tr)); len(removed) == 0 {
		t.Error("RemoveAll removed nothing")
	}
	if m.Schema.Scheme("COURSE''") == nil {
		t.Fatal("merged schema lacks COURSE''")
	}

	db := relmerge.Fig3State()
	if err := relmerge.Consistent(s, db); err != nil {
		t.Fatalf("figure 3 state inconsistent: %v", err)
	}
	mapped := m.MapState(db)
	if err := relmerge.Consistent(m.Schema, mapped); err != nil {
		t.Errorf("mapped state inconsistent: %v", err)
	}
	if !m.UnmapState(mapped).Equal(db) {
		t.Error("η′∘η did not restore the original state")
	}

	if len(tr.Events()) == 0 {
		t.Error("tracer recorded no spans")
	}
}

func TestFacadePlanApply(t *testing.T) {
	s := relmerge.Fig3()
	clusters := relmerge.PlanCtx(context.Background(), s)
	if len(clusters) == 0 {
		t.Fatal("planner found no Prop. 5.2 clusters on figure 3")
	}
	out, merges, err := relmerge.ApplyCtx(context.Background(), s, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if len(merges) != len(clusters) {
		t.Errorf("got %d merge records for %d clusters", len(merges), len(clusters))
	}
	if len(out.Relations) >= len(s.Relations) {
		t.Errorf("apply did not shrink the schema: %d -> %d schemes",
			len(s.Relations), len(out.Relations))
	}
}

func TestFacadeErrorsAndParsing(t *testing.T) {
	s := relmerge.Fig3()
	if _, err := relmerge.MergeCtx(context.Background(), s, []string{"COURSE"}); !errors.Is(err, relmerge.ErrMergeSetTooSmall) {
		t.Errorf("single-member merge error = %v, want ErrMergeSetTooSmall", err)
	}
	if _, err := relmerge.MergeCtx(context.Background(), s, []string{"COURSE", "NOPE"}); !errors.Is(err, relmerge.ErrUnknownScheme) {
		t.Errorf("unknown-scheme merge error = %v, want ErrUnknownScheme", err)
	}

	m, err := relmerge.MergeCtx(context.Background(), s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"})
	if err != nil {
		t.Fatal(err)
	}
	var nr *relmerge.ErrNotRemovable
	if err := m.Remove("COURSE"); !errors.As(err, &nr) {
		t.Errorf("Remove(key-relation) error = %v, want ErrNotRemovable", err)
	}

	// A schema printed by the facade parses back through the facade.
	reparsed, err := relmerge.ParseSchema(relmerge.PrintSchema(s))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got, want := len(reparsed.Relations), len(s.Relations); got != want {
		t.Errorf("reparsed %d schemes, want %d", got, want)
	}
	db, err := relmerge.ParseState(s, relmerge.PrintState(s, relmerge.Fig3State()))
	if err != nil {
		t.Fatalf("state reparse: %v", err)
	}
	if !db.Equal(relmerge.Fig3State()) {
		t.Error("state round trip through PrintState/ParseState changed the state")
	}
}
