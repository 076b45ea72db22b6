// Package repro holds the micro-benchmarks: one per experiment in DESIGN.md's
// index (E1–E10 covering every figure and proposition of the paper) plus
// P1–P5, the only copy of the design-level performance experiments (profile
// lookups base vs. merged, declarative vs. trigger maintenance, Merge +
// RemoveAll vs. merge-set size, advisor, query planner). Run with
//
//	go test -bench=. -benchmem
//
// See cmd/benchreport for the human-readable reproduction of each figure's
// content, and benchmark/ (relbench) for the system benchmark.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/eer"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/infocap"
	"repro/internal/keyrel"
	"repro/internal/nullcon"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/internal/workload"
)

// E1 — figure 1: both translations of the ER schema.
func BenchmarkE1Fig1Translate(b *testing.B) {
	es := eer.Fig1()
	b.Run("markowitz-shoshani", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := translate.MS(es); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("teorey-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := translate.Teorey(es); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E2 — figure 2: the two-relation merge, with and without a key-relation.
func BenchmarkE2Fig2Merge(b *testing.B) {
	for _, linked := range []bool{true, false} {
		name := "key-relation"
		if !linked {
			name = "synthetic-key"
		}
		b.Run(name, func(b *testing.B) {
			s := figures.Fig2(linked)
			for i := 0; i < b.N; i++ {
				if _, err := core.Merge(s, []string{"OFFER", "TEACH"}, "ASSIGN"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 — figure 3: building and validating the university schema, plus its
// round trip through the SDL parser.
func BenchmarkE3Fig3Build(b *testing.B) {
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := figures.Fig3().Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	text := sdl.PrintSchema(figures.Fig3())
	b.Run("parse-sdl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sdl.ParseSchema(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E4 — figure 4: Merge(COURSE, OFFER, TEACH).
func BenchmarkE4Fig4Merge(b *testing.B) {
	s := figures.Fig3()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(s, []string{"COURSE", "OFFER", "TEACH"}, "COURSE'"); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — figure 5: Merge(COURSE, OFFER, TEACH, ASSIST).
func BenchmarkE5Fig5Merge(b *testing.B) {
	s := figures.Fig3()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''"); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 — figure 6: the removals on top of the figure 5 merge.
func BenchmarkE6Fig6Remove(b *testing.B) {
	s := figures.Fig3()
	for i := 0; i < b.N; i++ {
		m, err := core.Merge(s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
		if err != nil {
			b.Fatal(err)
		}
		if removed := m.RemoveAll(); len(removed) != 3 {
			b.Fatalf("removed %v", removed)
		}
	}
}

// E7 — figure 7: EER → relational translation of the university schema.
func BenchmarkE7Fig7EER(b *testing.B) {
	es := eer.Fig7()
	for i := 0; i < b.N; i++ {
		rs, err := translate.MS(es)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Relations) != 8 {
			b.Fatal("wrong shape")
		}
	}
}

// E8 — figure 8: the structural condition checks for all four structures.
func BenchmarkE8Fig8Structures(b *testing.B) {
	i8, ii8, iii8, iv8 := eer.Fig8i(), eer.Fig8ii(), eer.Fig8iii(), eer.Fig8iv()
	for i := 0; i < b.N; i++ {
		if i8.CheckCondition1("VEHICLE", []string{"CAR", "TRUCK"}) == nil {
			b.Fatal("8i should fail")
		}
		if ii8.CheckCondition2("EMPLOYEE", []string{"WORKS", "BELONGS"}) == nil {
			b.Fatal("8ii should fail")
		}
		if iii8.CheckCondition1("PERSON", []string{"FACULTY", "STUDENT"}) != nil {
			b.Fatal("8iii should hold")
		}
		if iv8.CheckCondition2("COURSE", []string{"OFFER", "TEACH"}) != nil {
			b.Fatal("8iv should hold")
		}
	}
}

// E9 — the information-capacity round trip η′∘η on random consistent states
// (the empirical content of Props. 4.1/4.2), and the Prop. 3.1 key-relation
// test.
func BenchmarkE9RoundTrip(b *testing.B) {
	s := figures.Fig3()
	names := []string{"COURSE", "OFFER", "TEACH", "ASSIST"}
	m, err := core.Merge(s, names, "COURSE''")
	if err != nil {
		b.Fatal(err)
	}
	m.RemoveAll()
	rng := rand.New(rand.NewSource(9))
	db := state.MustGenerate(s, rng, state.GenOptions{Rows: 50})
	b.Run("eta-etaprime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !m.RoundTrip(db) {
				b.Fatal("round trip failed")
			}
		}
	})
	b.Run("keyrel-find", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := keyrel.Find(s, names); len(got) != 1 {
				b.Fatal("key-relation")
			}
		}
	})
}

// E10 — the Prop. 5.1/5.2 condition checks and the schema-wide planner.
func BenchmarkE10Conditions(b *testing.B) {
	s := figures.Fig3()
	b.Run("prop51", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Prop51(s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"})
		}
	})
	b.Run("prop52", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := core.Prop52(s, []string{"OFFER", "TEACH", "ASSIST"}); !ok {
				b.Fatal("prop 5.2 should hold")
			}
		}
	})
	b.Run("planner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := core.Prop52Clusters(s); len(got) != 1 {
				b.Fatal("planner")
			}
		}
	})
}

// P1 — access performance: the object-profile query on base vs. merged
// schemas, swept over the star width. The per-op numbers reproduce the
// paper's join-reduction claim: base cost grows with n, merged cost is flat.
func BenchmarkP1AccessPerformance(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		bench, err := workload.NewBench(workload.StarEER(n), "E0", 200, int64(100+n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("base/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.ProfileBase(bench.Keys[i%len(bench.Keys)])
			}
		})
		b.Run(fmt.Sprintf("merged/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.ProfileMerged(bench.Keys[i%len(bench.Keys)])
			}
		})
	}
}

// P2 — maintenance overhead: inserts under the two constraint regimes
// (only-NNA vs. null-existence chains).
func BenchmarkP2MaintenanceOverhead(b *testing.B) {
	regimes := []struct {
		name string
		es   func(int) *eer.Schema
	}{
		{"declarative-star", workload.StarEER},
		{"trigger-chain", workload.ChainEER},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			bench, err := workload.NewBench(r.es(4), "E0", 50, 23)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bench.InsertMergedRow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// P3 — Merge + RemoveAll scalability over the merge-set size.
func BenchmarkP3MergeScalability(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		base, err := translate.MS(workload.StarEER(n))
		if err != nil {
			b.Fatal(err)
		}
		names := workload.MergeSetFor(base, "E0")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.Merge(base, names, "MERGED")
				if err != nil {
					b.Fatal(err)
				}
				m.RemoveAll()
				if !nullcon.OnlyNNA(m.Schema.NullsOf("MERGED")) {
					b.Fatal("star should reduce to NNA")
				}
			}
		})
	}
}

// P4 — the denormalization advisor over the figure 3 schema.
func BenchmarkP4Advisor(b *testing.B) {
	s := figures.Fig3()
	w := advisor.Workload{
		ProfileQueries: map[string]float64{"COURSE": 100, "PERSON": 10},
		Inserts:        map[string]float64{"COURSE": 5},
	}
	cm := advisor.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		recs, err := advisor.Advise(s, w, cm)
		if err != nil || len(recs) != 2 {
			b.Fatalf("recs = %v, %v", recs, err)
		}
	}
}

// Exhaustive information-capacity verification (Def. 2.1) on the figure 2
// merge — the strongest form of the Prop. 4.1 check.
func BenchmarkInfocapEquivalence(b *testing.B) {
	s := figures.Fig2(true)
	m, err := core.Merge(s, []string{"OFFER", "TEACH"}, "ASSIGN")
	if err != nil {
		b.Fatal(err)
	}
	opts := infocap.EnumOptions{DomainSize: 2, MaxTuples: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := infocap.CheckEquivalence(s, m.Schema, m.MapState, m.UnmapState, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// P5 — the logical query planner: identical answers, different access paths.
func BenchmarkP5QueryPlanner(b *testing.B) {
	s := figures.Fig3()
	m, err := core.Merge(s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		b.Fatal(err)
	}
	m.RemoveAll()
	rng := rand.New(rand.NewSource(12))
	st := state.MustGenerate(s, rng, state.GenOptions{Rows: 200})
	baseDB := engine.MustOpen(s)
	if err := baseDB.LoadCtx(context.Background(), st); err != nil {
		b.Fatal(err)
	}
	mergedDB := engine.MustOpen(m.Schema)
	if err := mergedDB.LoadCtx(context.Background(), m.MapState(st)); err != nil {
		b.Fatal(err)
	}
	var keys []relation.Tuple
	for _, tup := range st.Relation("COURSE").Tuples() {
		keys = append(keys, relation.Tuple{tup[0]})
	}
	want := []string{"C.NR", "O.D.NAME", "T.C.NR", "T.F.SSN", "A.S.SSN"}
	basePlanner := &query.BasePlanner{DB: baseDB}
	mergedPlanner := &query.MergedPlanner{DB: mergedDB, M: m}
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := query.Query{Root: "COURSE", Key: keys[i%len(keys)], Want: want}
			if _, err := basePlanner.AnswerCtx(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := query.Query{Root: "COURSE", Key: keys[i%len(keys)], Want: want}
			if _, err := mergedPlanner.AnswerCtx(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// DDL generation across dialects (supporting experiment for §5.1).
func BenchmarkDDLGeneration(b *testing.B) {
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []ddl.Dialect{ddl.Sybase, ddl.Ingres} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ddl.Generate(m.Schema, ddl.Options{Dialect: d}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
