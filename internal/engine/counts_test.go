package engine_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eer"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestInsertCountsMatchProgram: what the compiled program predicts for an
// insert (schema.RelCheck.InsertCounts, which the advisor prices) is what the
// engine counts, to the unit, for every relation of the paper's figures and
// of the star and chain designs, base and merged. Each relation gets one
// generated row, total on every dependency's left side, inserted into the
// rest of the generated state.
func TestInsertCountsMatchProgram(t *testing.T) {
	fig3 := figures.Fig3()
	type design struct {
		name string
		base *schema.Schema
		m    *core.MergedScheme // nil: the base design itself
	}
	merge := func(base *schema.Schema, members []string, name string, removeAll bool) *core.MergedScheme {
		m, err := core.Merge(base, members, name)
		if err != nil {
			t.Fatal(err)
		}
		if removeAll {
			m.RemoveAll()
		}
		return m
	}
	designs := []design{
		{"fig3", fig3, nil},
		{"fig4", fig3, merge(fig3, []string{"COURSE", "OFFER", "TEACH"}, "COURSE'", false)},
		{"fig6", fig3, merge(fig3, []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''", true)},
		{"prop52", fig3, merge(fig3, []string{"OFFER", "TEACH", "ASSIST"}, "OFFER'", true)},
	}
	for _, es := range []struct {
		name string
		s    *schema.Schema
	}{{"star4", mustMS(t, workload.StarEER(4))}, {"chain4", mustMS(t, workload.ChainEER(4))}} {
		designs = append(designs, design{es.name, es.s, nil},
			design{es.name + "-merged", es.s, merge(es.s, workload.MergeSetFor(es.s, "E0"), "MERGED", true)})
	}

	ctx := context.Background()
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			st := state.MustGenerate(d.base, rand.New(rand.NewSource(7)), state.GenOptions{Rows: 12})
			s := d.base
			if d.m != nil {
				s, st = d.m.Schema, d.m.MapState(st)
			}
			p, err := schema.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range p.Rels {
				row := totalRow(rc, st.Relation(rc.Name))
				if row == nil {
					t.Fatalf("%s: no generated row is total on every dependency's left side", rc.Name)
				}
				db := engine.MustOpen(s)
				if err := db.LoadCtx(ctx, without(p, st, rc.Name, row)); err != nil {
					t.Fatal(err)
				}
				before := db.StatsTotals()
				if err := db.InsertCtx(ctx, rc.Name, row); err != nil {
					t.Fatalf("%s: %v", rc.Name, err)
				}
				dt := db.StatsTotals().Sub(before)
				got := schema.Counts{DeclarativeChecks: dt.DeclarativeChecks, TriggerFirings: dt.TriggerFirings, IndexLookups: dt.IndexLookups}
				if want := rc.InsertCounts(); got != want {
					t.Errorf("%s: engine counted %+v, program predicts %+v", rc.Name, got, want)
				}
			}
		})
	}
}

func mustMS(t *testing.T, es *eer.Schema) *schema.Schema {
	t.Helper()
	s, err := translate.MS(es)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// totalRow returns the first row of r total on every left side of rc.Out.
func totalRow(rc *schema.RelCheck, r *relation.Relation) relation.Tuple {
	for _, tup := range r.Tuples() {
		total := true
		for _, c := range rc.Out {
			total = total && tup.TotalAt(c.LeftPos)
		}
		if total {
			return tup
		}
	}
	return nil
}

// without returns st less row of name and every row left dangling by its
// removal, transitively.
func without(p *schema.Program, st *state.DB, name string, row relation.Tuple) *state.DB {
	out := st.Clone()
	out.Relation(name).Remove(row)
	for changed := true; changed; {
		changed = false
		for _, c := range p.INDs {
			refs := map[string]bool{}
			for _, tup := range out.Relation(c.IND.Right).Tuples() {
				if tup.TotalAt(c.RightPos) {
					refs[string(tup.AppendKeyAt(nil, c.RightPos))] = true
				}
			}
			left := out.Relation(c.IND.Left)
			for _, tup := range append([]relation.Tuple(nil), left.Tuples()...) {
				if tup.TotalAt(c.LeftPos) && !refs[string(tup.AppendKeyAt(nil, c.LeftPos))] {
					changed = left.Remove(tup) || changed
				}
			}
		}
	}
	return out
}
