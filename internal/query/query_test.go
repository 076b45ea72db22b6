package query

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/state"
)

// setup builds base and merged (figure 6) engines over the same generated
// figure 3 data and returns both planners plus the course keys.
func setup(t *testing.T, seed int64) (*BasePlanner, *MergedPlanner, []relation.Tuple) {
	t.Helper()
	s := figures.Fig3()
	m, err := core.Merge(s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		t.Fatal(err)
	}
	m.RemoveAll()

	rng := rand.New(rand.NewSource(seed))
	st := state.MustGenerate(s, rng, state.GenOptions{
		Rows:    12,
		RowsPer: map[string]int{"OFFER": 8, "TEACH": 4, "ASSIST": 6},
	})
	baseDB := engine.MustOpen(s)
	if err := baseDB.LoadCtx(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	mergedDB := engine.MustOpen(m.Schema)
	if err := mergedDB.LoadCtx(context.Background(), m.MapState(st)); err != nil {
		t.Fatal(err)
	}
	var keys []relation.Tuple
	for _, tup := range st.Relation("COURSE").Tuples() {
		keys = append(keys, relation.Tuple{tup[0]})
	}
	return &BasePlanner{DB: baseDB}, &MergedPlanner{DB: mergedDB, M: m}, keys
}

// The same logical query returns identical answers on both designs —
// including a query for T.C.NR, an attribute Remove deleted from the merged
// relation (reconstructed from Km via total equality).
func TestPlannersAgree(t *testing.T) {
	base, merged, keys := setup(t, 9)
	want := []string{"C.NR", "O.D.NAME", "T.C.NR", "T.F.SSN", "A.S.SSN"}
	for _, key := range keys {
		q := Query{Root: "COURSE", Key: key, Want: want}
		a, err := base.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := merged.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, attr := range want {
			av, bv := a[attr], b[attr]
			if av.IsNull() != bv.IsNull() || (!av.IsNull() && !av.Identical(bv)) {
				t.Fatalf("key %v attr %s: base %v vs merged %v", key, attr, av, bv)
			}
		}
		// The reconstructed T.C.NR equals C.NR exactly when TEACH is present.
		if !b["T.C.NR"].IsNull() && !b["T.C.NR"].Identical(b["C.NR"]) {
			t.Fatalf("key %v: reconstructed T.C.NR %v ≠ C.NR %v", key, b["T.C.NR"], b["C.NR"])
		}
	}
}

// The access-path difference: the merged planner answers any such query in
// one lookup; the base planner needs one per owning scheme.
func TestPlannerLookupCounts(t *testing.T) {
	base, merged, keys := setup(t, 11)
	q := Query{Root: "COURSE", Key: keys[0],
		Want: []string{"C.NR", "O.D.NAME", "T.F.SSN", "A.S.SSN"}}

	before := base.DB.StatsTotals()
	if _, err := base.Answer(q); err != nil {
		t.Fatal(err)
	}
	if got := base.DB.StatsTotals().Sub(before).Lookups; got != 4 {
		t.Errorf("base lookups = %d, want 4", got)
	}

	before = merged.DB.StatsTotals()
	if _, err := merged.Answer(q); err != nil {
		t.Fatal(err)
	}
	if got := merged.DB.StatsTotals().Sub(before).Lookups; got != 1 {
		t.Errorf("merged lookups = %d, want 1", got)
	}
}

func TestPlannerMissingObject(t *testing.T) {
	base, merged, _ := setup(t, 13)
	q := Query{Root: "COURSE", Key: relation.Tuple{relation.NewString("nope")},
		Want: []string{"O.D.NAME", "T.C.NR"}}
	a, err := base.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := merged.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for attr := range a {
		if !a[attr].IsNull() || !b[attr].IsNull() {
			t.Errorf("missing object should answer nulls: %v / %v", a[attr], b[attr])
		}
	}
}

func TestPlannerErrors(t *testing.T) {
	base, merged, keys := setup(t, 17)
	if _, err := base.Answer(Query{Root: "NOPE", Key: keys[0], Want: []string{"C.NR"}}); err == nil {
		t.Error("unknown root")
	}
	if _, err := base.Answer(Query{Root: "COURSE", Key: keys[0], Want: []string{"ZZZ"}}); err == nil {
		t.Error("unknown attribute")
	}
	// D.NAME belongs to DEPARTMENT, whose key is not course-compatible.
	if _, err := base.Answer(Query{Root: "COURSE", Key: keys[0], Want: []string{"D.NAME"}}); err == nil {
		t.Error("attribute outside the key cluster")
	}
	if _, err := merged.Answer(Query{Root: "PERSON", Key: keys[0], Want: []string{"P.SSN"}}); err == nil {
		t.Error("non-member root on the merged planner")
	}
	if _, err := merged.Answer(Query{Root: "COURSE", Key: keys[0], Want: []string{"D.NAME"}}); err == nil {
		t.Error("attribute neither merged nor removed")
	}
}

// Querying through a member root other than the key-relation works the same
// (the key value spaces coincide).
func TestPlannerAlternateRoot(t *testing.T) {
	base, merged, keys := setup(t, 19)
	for _, key := range keys {
		q := Query{Root: "OFFER", Key: key, Want: []string{"O.D.NAME", "T.F.SSN"}}
		a, err := base.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := merged.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		for attr := range a {
			if a[attr].IsNull() != b[attr].IsNull() {
				t.Fatalf("disagreement on %s", attr)
			}
		}
	}
}
