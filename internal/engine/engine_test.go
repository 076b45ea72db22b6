package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/state"
)

func str(s string) relation.Value { return relation.NewString(s) }

func tup(vals ...any) relation.Tuple {
	out := make(relation.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			out[i] = relation.Null()
		case string:
			out[i] = relation.NewString(x)
		default:
			panic("bad test value")
		}
	}
	return out
}

func openFig3(t *testing.T) *DB {
	t.Helper()
	db, err := Open(figures.Fig3())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInsertAndLookup(t *testing.T) {
	db := openFig3(t)
	if err := db.InsertCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup("c1"))
	if !ok || !got.Identical(tup("c1")) {
		t.Error("GetByKey after insert")
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup("c2")); ok {
		t.Error("missing key should not be found")
	}
	if db.Count("COURSE") != 1 {
		t.Error("Count")
	}
}

func TestInsertNotNull(t *testing.T) {
	db := openFig3(t)
	err := db.InsertCtx(context.Background(), "COURSE", tup(nil))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != NotNullViolation {
		t.Fatalf("want NotNullViolation, got %v", err)
	}
	if cv.Relation != "COURSE" || cv.Attr != "C.NR" {
		t.Errorf("violation fields = %+v", cv)
	}
	if !errors.Is(err, ErrConstraintViolation) {
		t.Error("violation should match ErrConstraintViolation")
	}
	if !cv.Kind.Declarative() {
		t.Error("NOT NULL is a declarative-regime constraint")
	}
}

func TestInsertDuplicateKey(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	if err := db.InsertCtx(context.Background(), "OFFER", tup("c1", "math")); err != nil {
		t.Fatal(err)
	}
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("cs"))
	err := db.InsertCtx(context.Background(), "OFFER", tup("c1", "cs"))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != PrimaryKeyViolation {
		t.Fatalf("want PrimaryKeyViolation, got %v", err)
	}
	if cv.Relation != "OFFER" {
		t.Errorf("violation fields = %+v", cv)
	}
}

func TestInsertForeignKey(t *testing.T) {
	db := openFig3(t)
	err := db.InsertCtx(context.Background(), "OFFER", tup("c1", "math"))
	if err == nil {
		t.Fatal("dangling foreign key should be rejected")
	}
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	if err := db.InsertCtx(context.Background(), "OFFER", tup("c1", "math")); err != nil {
		t.Fatal(err)
	}
	before := db.StatsTotals().TriggerFirings
	if before != 0 {
		t.Errorf("figure 3 is fully declarative; no triggers should fire, got %d", before)
	}
}

func TestDeleteRestrict(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "OFFER", tup("c1", "math"))
	err := db.DeleteCtx(context.Background(), "COURSE", tup("c1"))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != RestrictViolation {
		t.Fatalf("want RestrictViolation, got %v", err)
	}
	if cv.Op != "delete" || cv.Kind.Declarative() {
		t.Errorf("restrict violation should be a trigger-regime delete, got %+v", cv)
	}
	if err := db.DeleteCtx(context.Background(), "OFFER", tup("c1")); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatalf("after removing the referencing tuple the delete should pass: %v", err)
	}
	if err := db.DeleteCtx(context.Background(), "COURSE", tup("c1")); err == nil {
		t.Error("deleting a missing tuple should fail")
	}
}

func TestUpdate(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("cs"))
	db.InsertCtx(context.Background(), "OFFER", tup("c1", "math"))
	if err := db.UpdateCtx(context.Background(), "OFFER", tup("c1"), tup("c1", "cs")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := db.GetByKeyCtx(context.Background(), "OFFER", tup("c1"))
	if !got.Identical(tup("c1", "cs")) {
		t.Errorf("update not applied: %v", got)
	}
	// Updating to a dangling FK rolls back.
	if err := db.UpdateCtx(context.Background(), "OFFER", tup("c1"), tup("c1", "physics")); err == nil {
		t.Fatal("dangling FK update should fail")
	}
	got, _, _ = db.GetByKeyCtx(context.Background(), "OFFER", tup("c1"))
	if !got.Identical(tup("c1", "cs")) {
		t.Errorf("failed update must roll back, got %v", got)
	}
	// Updating a referenced key is restricted.
	db.InsertCtx(context.Background(), "PERSON", tup("p1"))
	db.InsertCtx(context.Background(), "FACULTY", tup("p1"))
	if err := db.UpdateCtx(context.Background(), "PERSON", tup("p1"), tup("p9")); err == nil {
		t.Error("updating a referenced key should be restricted")
	}
}

func TestProceduralNullConstraints(t *testing.T) {
	// The figure 6 schema: COURSE'' carries null-existence constraints that
	// must be enforced procedurally.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		t.Fatal(err)
	}
	m.RemoveAll()
	db := MustOpen(m.Schema)
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "PERSON", tup("p1"))
	db.InsertCtx(context.Background(), "FACULTY", tup("p1"))

	// A course with a TEACH part but no OFFER part violates
	// T.F.SSN ⊑ O.D.NAME.
	err = db.InsertCtx(context.Background(), "COURSE''", tup("c1", nil, "p1", nil))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != NullConstraintViolation {
		t.Fatalf("want NullConstraintViolation, got %v", err)
	}
	if cv.Constraint == "" || cv.Kind.Declarative() {
		t.Errorf("null constraint should carry its rendering and be trigger-regime, got %+v", cv)
	}
	if db.StatsTotals().TriggerFirings == 0 {
		t.Error("procedural constraint should count as a trigger firing")
	}
	// With the OFFER part present it passes.
	if err := db.InsertCtx(context.Background(), "COURSE''", tup("c1", "math", "p1", nil)); err != nil {
		t.Fatal(err)
	}
}

func TestNonKeyBasedINDTrigger(t *testing.T) {
	// Figure 4's schema: ASSIST[A.C.NR] ⊆ COURSE'[O.C.NR] is non-key-based.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(m.Schema)
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "PERSON", tup("p2"))
	db.InsertCtx(context.Background(), "STUDENT", tup("p2"))
	// COURSE' rows: c1 with an OFFER part, c2 without.
	if err := db.InsertCtx(context.Background(), "COURSE'", tup("c1", "c1", "math", nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "COURSE'", tup("c2", nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}

	fires := db.StatsTotals().TriggerFirings
	// ASSIST referencing c1 (an offered course) passes.
	if err := db.InsertCtx(context.Background(), "ASSIST", tup("c1", "p2")); err != nil {
		t.Fatal(err)
	}
	if db.StatsTotals().TriggerFirings <= fires {
		t.Error("non-key-based dependency must fire a trigger")
	}
	// ASSIST referencing c2 (not offered: O.C.NR is null) fails.
	if err := db.InsertCtx(context.Background(), "ASSIST", tup("c2", "p2")); err == nil {
		t.Error("referencing a null O.C.NR should fail the inclusion dependency")
	}
	// ASSIST referencing an unknown course fails.
	if err := db.InsertCtx(context.Background(), "ASSIST", tup("c9", "p2")); err == nil {
		t.Error("dangling non-key-based reference should fail")
	}
}

func TestLoadAndSnapshot(t *testing.T) {
	s := figures.Fig3()
	rng := rand.New(rand.NewSource(31))
	st := state.MustGenerate(s, rng, state.GenOptions{Rows: 10})
	db := MustOpen(s)
	if err := db.LoadCtx(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if !snap.Equal(st) {
		t.Error("snapshot should equal the loaded state")
	}
	if err := state.Consistent(s, snap); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	st := db.StatsTotals()
	if st.Inserts != 1 || st.DeclarativeChecks == 0 || st.IndexLookups == 0 {
		t.Errorf("stats = %+v", st)
	}
	db.InsertCtx(context.Background(), "COURSE", tup("c2"))
	if w := db.StatsTotals().Sub(st); w.Inserts != 1 || w.DeclarativeChecks != st.DeclarativeChecks || w.Lookups != 0 {
		t.Errorf("window after one more insert = %+v, first insert = %+v", w, st)
	}
}

func TestErrors(t *testing.T) {
	db := openFig3(t)
	if err := db.InsertCtx(context.Background(), "NOPE", tup("x")); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation insert: %v", err)
	}
	if err := db.InsertCtx(context.Background(), "COURSE", tup("a", "b")); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("arity mismatch: %v", err)
	}
	if err := db.DeleteCtx(context.Background(), "NOPE", tup("x")); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation delete: %v", err)
	}
	if err := db.UpdateCtx(context.Background(), "NOPE", tup("x"), tup("y")); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation update: %v", err)
	}
	if err := db.UpdateCtx(context.Background(), "COURSE", tup("missing"), tup("x")); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("updating a missing tuple: %v", err)
	}
	if db.Relation("NOPE") != nil || db.Count("NOPE") != 0 {
		t.Error("unknown relation accessors")
	}
	if err := db.Scan("NOPE", nil, func(relation.Tuple) {}); err == nil {
		t.Error("unknown relation scan")
	}
}

func TestScan(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "COURSE", tup("c2"))
	var seen int
	db.Scan("COURSE", func(tp relation.Tuple) bool {
		return tp[0].AsString() == "c2"
	}, func(relation.Tuple) { seen++ })
	if seen != 1 {
		t.Errorf("Scan matched %d", seen)
	}
	if n := db.StatsTotals().TuplesScanned; n != 2 {
		t.Errorf("TuplesScanned = %d", n)
	}
}

func TestContextCancellation(t *testing.T) {
	db := openFig3(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.InsertCtx(ctx, "COURSE", tup("c1")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled insert: %v", err)
	}
	if db.Count("COURSE") != 0 {
		t.Error("cancelled insert must not mutate state")
	}
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	if err := db.DeleteCtx(ctx, "COURSE", tup("c1")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled delete: %v", err)
	}
	if err := db.UpdateCtx(ctx, "COURSE", tup("c1"), tup("c2")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled update: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	st := state.MustGenerate(figures.Fig3(), rng, state.GenOptions{Rows: 5})
	fresh := MustOpen(figures.Fig3())
	if err := fresh.LoadCtx(ctx, st); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled load: %v", err)
	}
}

// TestRegistryReconciliation checks that StatsTotals is a view of the
// registry: every cost counter equals its series, and a measurement window
// (Sub) never rewinds the monotonic series behind it.
func TestRegistryReconciliation(t *testing.T) {
	reg := obs.NewRegistry()
	db, err := Open(figures.Fig3(), WithRegistry(reg), WithName("base"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	st := state.MustGenerate(figures.Fig3(), rng, state.GenOptions{Rows: 20})
	if err := db.LoadCtx(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	db.InsertCtx(context.Background(), "COURSE", tup(nil)) // one violation
	db.GetByKeyCtx(context.Background(), "COURSE", tup("c1"))

	totals := db.StatsTotals()
	want := map[string]int{
		"engine.inserts":            totals.Inserts,
		"engine.deletes":            totals.Deletes,
		"engine.updates":            totals.Updates,
		"engine.lookups":            totals.Lookups,
		"engine.declarative_checks": totals.DeclarativeChecks,
		"engine.trigger_firings":    totals.TriggerFirings,
		"engine.index_lookups":      totals.IndexLookups,
		"engine.tuples_scanned":     totals.TuplesScanned,
	}
	got := map[string]int{}
	for _, p := range reg.Snapshot() {
		if p.Kind == obs.KindCounter {
			got[p.Name] = int(p.Value)
		}
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: registry %d != StatsTotals %d", name, got[name], w)
		}
	}
	if got["engine.constraint_violations"] != 1 {
		t.Errorf("constraint_violations = %d", got["engine.constraint_violations"])
	}
	if db.Registry() != reg || db.MetricName() != "base" {
		t.Error("WithRegistry/WithName accessors")
	}
	// A window opened now sees only what follows; the series keep growing.
	pre := got["engine.inserts"]
	if err := db.InsertCtx(context.Background(), "COURSE", tup("c-windowed")); err != nil {
		t.Fatal(err)
	}
	after := db.StatsTotals()
	if got := after.Sub(totals).Inserts; got != 1 {
		t.Errorf("windowed inserts = %d, want 1", got)
	}
	if after.Inserts != pre+1 {
		t.Errorf("total inserts = %d, want %d", after.Inserts, pre+1)
	}
	for _, p := range reg.Snapshot() {
		if p.Name == "engine.inserts" && int(p.Value) != after.Inserts {
			t.Errorf("registry %v != StatsTotals %d", p.Value, after.Inserts)
		}
	}
}
