package online

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sdl"
)

func tup(vals ...any) relation.Tuple {
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

// heat synthesizes co-access evidence on the Prop. 5.2 cluster's internal
// edges (TEACH→OFFER, ASSIST→OFFER).
func heat(hits int64) []engine.CoAccessStat {
	return []engine.CoAccessStat{
		{Left: "TEACH", Right: "OFFER", Hits: hits},
		{Left: "ASSIST", Right: "OFFER", Hits: hits / 2},
	}
}

func TestDecideMergeFavorable(t *testing.T) {
	// Hot join-shaped access, few inserts: the only-NNA OFFER cluster must
	// be admitted AND auto-applicable.
	sugs := Decide(figures.Fig3(), heat(1000), engine.StatsSnapshot{Inserts: 3}, Config{})
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	best := sugs[0]
	if !best.AutoApplicable {
		t.Fatalf("best suggestion not auto-applicable: %+v", best)
	}
	if best.Rec.KeyRelation != "OFFER" || !best.Rec.OnlyNNA {
		t.Fatalf("auto-applicable pick should be the Prop. 5.2 OFFER cluster: %+v", best.Rec)
	}
	if best.CoAccessHits != 1500 {
		t.Fatalf("cluster heat = %d, want 1500 (both internal edges)", best.CoAccessHits)
	}
	// The trigger-laden Prop. 3.1 closures may be admitted as suggestions
	// but never auto-applicable.
	for _, s := range sugs {
		if s.AutoApplicable && (!s.Rec.OnlyNNA || s.Rec.ProceduralConstraints > 0) {
			t.Fatalf("non-NNA cluster marked auto-applicable: %+v", s)
		}
	}
}

// An IND elsewhere in the schema does not change a cluster's verdict: a
// non-key-based KIT[K.LNAME] ⊆ LAB[L.NAME] beside figure 3 is no procedural
// constraint of the OFFER merge, which stays auto-applicable.
func TestDecideIgnoresUnrelatedProceduralIND(t *testing.T) {
	s := figures.Fig3()
	s.AddScheme(schema.NewScheme("LAB", []schema.Attribute{{Name: "L.ID", Domain: "lab_id"}, {Name: "L.NAME", Domain: "lab_name"}}, []string{"L.ID"}))
	s.AddScheme(schema.NewScheme("KIT", []schema.Attribute{{Name: "K.ID", Domain: "kit_id"}, {Name: "K.LNAME", Domain: "lab_name"}}, []string{"K.ID"}))
	s.INDs = append(s.INDs, schema.NewIND("KIT", []string{"K.LNAME"}, "LAB", []string{"L.NAME"}))
	s.Nulls = append(s.Nulls, schema.NNA("LAB", "L.ID", "L.NAME"), schema.NNA("KIT", "K.ID", "K.LNAME"))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sugs := Decide(s, heat(1000), engine.StatsSnapshot{Inserts: 3}, Config{})
	for _, sug := range sugs {
		if sug.Rec.KeyRelation != "OFFER" {
			continue
		}
		if sug.Rec.ProceduralConstraints != 0 || !sug.AutoApplicable {
			t.Fatalf("OFFER cluster: %d procedural constraints, auto-applicable %v", sug.Rec.ProceduralConstraints, sug.AutoApplicable)
		}
		return
	}
	t.Fatalf("no OFFER cluster among %+v", sugs)
}

func TestDecideMergeHostile(t *testing.T) {
	// Cold edges: nothing crosses the admission heat regardless of pricing.
	for _, sug := range Decide(figures.Fig3(), heat(3), engine.StatsSnapshot{Inserts: 10000}, Config{}) {
		if sug.Admitted || sug.AutoApplicable {
			t.Fatalf("cold cluster admitted: %+v", sug)
		}
	}
	// Hot but insert-dominated: trigger-needing closures must never become
	// auto-applicable. (The only-NNA cluster may still win — that is the
	// paper's point.)
	for _, sug := range Decide(figures.Fig3(), []engine.CoAccessStat{{Left: "OFFER", Right: "COURSE", Hits: 100}}, engine.StatsSnapshot{Inserts: 1e6}, Config{}) {
		if sug.Rec.ProceduralConstraints > 0 && sug.AutoApplicable {
			t.Fatalf("trigger-needing cluster auto-applicable: %+v", sug)
		}
	}
}

func TestDecidePure(t *testing.T) {
	a := Decide(figures.Fig3(), heat(500), engine.StatsSnapshot{Inserts: 5}, Config{})
	b := Decide(figures.Fig3(), heat(500), engine.StatsSnapshot{Inserts: 5}, Config{})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Rec.MergedName != b[i].Rec.MergedName || a[i].CoAccessHits != b[i].CoAccessHits ||
			a[i].Admitted != b[i].Admitted || a[i].AutoApplicable != b[i].AutoApplicable ||
			a[i].Rec.NetBenefit != b[i].Rec.NetBenefit {
			t.Fatalf("non-deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestApplyToLiveEngine(t *testing.T) {
	db := engine.MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	// Generate genuine join-shaped heat through the real fetch path.
	for i := 0; i < DefaultMinCoAccess*2; i++ {
		if _, _, err := db.FetchWithReferences("TEACH", tup("c1")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.FetchWithReferences("ASSIST", tup("c1")); err != nil {
			t.Fatal(err)
		}
	}
	tgt := ForDB(db)
	s, co, st := tgt.DesignSnapshot()
	sugs := Decide(s, co, st, Config{})
	if len(sugs) == 0 || !sugs[0].AutoApplicable {
		t.Fatalf("measured workload did not produce an auto-applicable merge: %+v", sugs)
	}
	if err := Apply(tgt, sugs[0]); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !strings.Contains(sdl.PrintSchema(db.Schema), sugs[0].Rec.MergedName) {
		t.Fatalf("live engine not migrated to %s:\n%s", sugs[0].Rec.MergedName, sdl.PrintSchema(db.Schema))
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), sugs[0].Rec.MergedName, tup("c1")); !ok {
		t.Fatal("merged relation does not serve")
	}
	// Applying the same (now stale) suggestion again fails cleanly: the
	// cluster members no longer exist on the current design.
	if err := Apply(tgt, sugs[0]); err == nil {
		t.Fatal("stale suggestion must not re-apply")
	}
	// A suggestion that is not auto-applicable is refused.
	if err := Apply(tgt, Suggestion{Admitted: true}); err == nil {
		t.Fatal("non-auto-applicable suggestion must be refused")
	}
}

func TestRunLoopAutoMigrates(t *testing.T) {
	db := engine.MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultMinCoAccess*2; i++ {
		if _, _, err := db.FetchWithReferences("TEACH", tup("c1")); err != nil {
			t.Fatal(err)
		}
	}
	applied := make(chan Suggestion, 1)
	stop := Start(ForDB(db), LoopConfig{
		Mode:     Auto,
		Interval: time.Millisecond,
		OnApplied: func(s Suggestion, err error) {
			if err == nil {
				select {
				case applied <- s:
				default:
				}
			}
		},
	})
	defer stop()
	select {
	case s := <-applied:
		if _, ok, _ := db.GetByKeyCtx(context.Background(), s.Rec.MergedName, tup("c1")); !ok {
			t.Fatalf("loop reported applying %s but it does not serve", s.Rec.MergedName)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("auto loop never migrated")
	}
	stop()
	stop() // idempotent
}

func TestRunLoopSuggestNeverMigrates(t *testing.T) {
	db := engine.MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultMinCoAccess*2; i++ {
		if _, _, err := db.FetchWithReferences("TEACH", tup("c1")); err != nil {
			t.Fatal(err)
		}
	}
	suggested := make(chan Suggestion, 1)
	stop := Start(ForDB(db), LoopConfig{
		Mode:     Suggest,
		Interval: time.Millisecond,
		OnSuggestion: func(s Suggestion) {
			select {
			case suggested <- s:
			default:
			}
		},
	})
	defer stop()
	select {
	case <-suggested:
	case <-time.After(10 * time.Second):
		t.Fatal("suggest loop never reported")
	}
	stop()
	before := sdl.PrintSchema(figures.Fig3())
	if got := sdl.PrintSchema(db.Schema); got != before {
		t.Fatalf("suggest mode migrated the engine:\n%s", got)
	}
}
