package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eer"
	"repro/internal/fd"
	"repro/internal/figures"
	"repro/internal/keyrel"
	"repro/internal/nullcon"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
)

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustMerge(s *schema.Schema, names []string, name string) *core.MergedScheme {
	m, err := core.Merge(s, names, name)
	must(err)
	return m
}

// E1 — Figure 1: the MS translation (RS), the Teorey baseline (RS'), and a
// mechanical demonstration of the DATE/NR anomaly.
func runE1() {
	rs, err := translate.MS(eer.Fig1())
	must(err)
	fmt.Println("RS (figure 1(ii), Markowitz–Shoshani translation):")
	fmt.Println(indent(rs.String()))

	teorey, err := translate.Teorey(eer.Fig1())
	must(err)
	fmt.Println("RS' (Teorey-style translation, WORKS and MANAGES folded into EMPLOYEE):")
	fmt.Println(indent(teorey.String()))

	db := state.New(teorey)
	db.Relation("EMPLOYEE").Add(relation.Tuple{
		relation.NewString("e1"), relation.Null(),
		relation.NewString("1992-02"), relation.Null(),
	})
	fmt.Printf("anomalous state (employee with assignment DATE but no PROJECT):\n")
	fmt.Printf("  consistent with RS' as generated:         %v\n", state.IsConsistent(teorey, db))
	teorey.Nulls = append(teorey.Nulls,
		schema.NewNullExistence("EMPLOYEE", []string{"W.DATE"}, []string{"W.NR"}))
	fmt.Printf("  consistent after adding W.DATE ⊑ W.NR:    %v   (paper: must be false)\n",
		state.IsConsistent(teorey, db))
}

// E2 — Figure 2: the two merges of OFFER and TEACH, plus the synthesis
// baseline of the introduction.
func runE2() {
	fmt.Println("synthesis baseline (Beeri–Bernstein–Goodman, equivalent-key merging):")
	schemes := fd.Synthesize(
		[]string{"COURSE", "FACULTY", "DEPARTMENT"},
		[]fd.Dep{
			fd.NewDep([]string{"COURSE"}, []string{"FACULTY"}),
			fd.NewDep([]string{"COURSE"}, []string{"DEPARTMENT"}),
		})
	for _, sch := range schemes {
		fmt.Printf("  ASSIGN-like scheme %v keys %v — no null constraints generated\n", sch.Attrs, sch.Keys)
	}
	fmt.Println()

	m := mustMerge(figures.Fig2(true), []string{"OFFER", "TEACH"}, "ASSIGN")
	fmt.Printf("Merge with key-relation %s (linked figure 2):\n%s\n", m.KeyRelation, indent(m.Schema.String()))

	m2 := mustMerge(figures.Fig2(false), []string{"OFFER", "TEACH"}, "ASSIGN")
	fmt.Printf("Merge with a synthetic key-relation (unlinked figure 2, note the part-null constraint):\n%s", indent(m2.Schema.String()))
}

// E3 — Figure 3.
func runE3() {
	fmt.Println(indent(figures.Fig3().String()))
}

// E4 — Figure 4.
func runE4() {
	m := mustMerge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	fmt.Println(indent(m.Schema.String()))
	fmt.Printf("all inclusion dependencies key-based: %v   (paper: false — dependency (11))\n",
		core.AllINDsKeyBased(m.Schema))
}

// E5 — Figure 5.
func runE5() {
	m := mustMerge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	fmt.Println(indent(m.Schema.String()))
	fmt.Printf("all inclusion dependencies key-based: %v   (paper: true)\n",
		core.AllINDsKeyBased(m.Schema))
}

// E6 — Figure 6.
func runE6() {
	m := mustMerge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	removed := m.RemoveAll()
	fmt.Printf("removed key copies of: %v\n\n", removed)
	fmt.Println(indent(m.Schema.String()))

	m4 := mustMerge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	fmt.Printf("O.C.NR removable in COURSE'' (figure 5): %v   (paper: yes)\n", nil == mustMergeRemovable())
	fmt.Printf("O.C.NR removable in COURSE'  (figure 4): %v   (paper: no — ASSIST references it)\n",
		m4.IsRemovable("OFFER") == nil)
}

func mustMergeRemovable() error {
	m := mustMerge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	return m.IsRemovable("OFFER")
}

// E7 — Figure 7 and its translation.
func runE7() {
	es := eer.Fig7()
	fmt.Printf("EER schema: %d entity-sets, %d relationship-sets, %d ISA links\n",
		len(es.Entities), len(es.Relationships), len(es.ISAs))
	rs, err := translate.MS(es)
	must(err)
	same := rs.SameConstraints(figures.Fig3())
	fmt.Printf("translation equals figure 3: %v\n", same)
}

// E8 — Figure 8 structure table.
func runE8() {
	type row struct {
		name   string
		es     *eer.Schema
		object string
		others []string
		cond   func(*eer.Schema, string, []string) error
	}
	rows := []row{
		{"8(i)   hierarchy, multi-attribute specializations", eer.Fig8i(), "VEHICLE", []string{"CAR", "TRUCK"}, (*eer.Schema).CheckCondition1},
		{"8(ii)  relationships with attributes", eer.Fig8ii(), "EMPLOYEE", []string{"WORKS", "BELONGS"}, (*eer.Schema).CheckCondition2},
		{"8(iii) hierarchy, single-attribute specializations", eer.Fig8iii(), "PERSON", []string{"FACULTY", "STUDENT"}, (*eer.Schema).CheckCondition1},
		{"8(iv)  attribute-less many-to-one relationships", eer.Fig8iv(), "COURSE", []string{"OFFER", "TEACH"}, (*eer.Schema).CheckCondition2},
	}
	fmt.Printf("%-52s %-12s %s\n", "structure", "condition", "merged constraints")
	for _, r := range rows {
		condOK := r.cond(r.es, r.object, r.others) == nil
		rs, err := translate.MS(r.es)
		must(err)
		m := mustMerge(rs, append([]string{r.object}, r.others...), "MERGED")
		m.RemoveAll()
		regime := "general null constraints"
		if nullcon.OnlyNNA(m.Schema.NullsOf("MERGED")) {
			regime = "only nulls-not-allowed"
		}
		fmt.Printf("%-52s %-12v %s\n", r.name, condOK, regime)
	}
}

// E9 — property verification of Props. 3.1, 4.1, 4.2.
func runE9() {
	s := figures.Fig3()
	names := []string{"COURSE", "OFFER", "TEACH", "ASSIST"}
	fmt.Printf("Prop 3.1: key-relations of %v: %v\n", names, keyrel.Find(s, names))

	rng := rand.New(rand.NewSource(1992))
	trials := 50
	okMerge, okRemove, okConverse := 0, 0, 0
	for i := 0; i < trials; i++ {
		db := state.MustGenerate(s, rng, state.GenOptions{
			Rows:    8,
			RowsPer: map[string]int{"OFFER": 5, "TEACH": 3, "ASSIST": 4},
		})
		m := mustMerge(s, names, "COURSE''")
		if m.RoundTrip(db) && state.IsConsistent(m.Schema, m.MapState(db)) {
			okMerge++
		}
		if m.RoundTripMerged(m.MapState(db)) {
			okConverse++
		}
		m.RemoveAll()
		if m.RoundTrip(db) && state.IsConsistent(m.Schema, m.MapState(db)) {
			okRemove++
		}
	}
	fmt.Printf("Prop 4.1: η′∘η = id and η(r) consistent:        %d/%d random states\n", okMerge, trials)
	fmt.Printf("Prop 4.1: η∘η′ = id on merged states:           %d/%d random states\n", okConverse, trials)
	fmt.Printf("Prop 4.2: round trip with removals composed in: %d/%d random states\n", okRemove, trials)

	m := mustMerge(s, names, "COURSE''")
	m.RemoveAll()
	fmt.Printf("Prop 4.1(ii): merged schema in BCNF: %v\n", core.AllBCNF(m.Schema))
}

// E10 — the Prop. 5.1 / 5.2 condition table over merge sets of figure 3.
func runE10() {
	s := figures.Fig3()
	sets := [][]string{
		{"COURSE", "OFFER"},
		{"COURSE", "OFFER", "TEACH"},
		{"COURSE", "OFFER", "TEACH", "ASSIST"},
		{"OFFER", "TEACH", "ASSIST"},
		{"PERSON", "FACULTY", "STUDENT"},
	}
	fmt.Printf("%-34s %-10s %-10s %-22s %s\n", "merge set", "5.1(i)", "5.1(ii)", "5.2", "only-NNA after Remove")
	for _, names := range sets {
		kb, nn := core.Prop51(s, names)
		rk, ok52 := core.Prop52(s, names)
		m := mustMerge(figures.Fig3(), names, "MERGED")
		m.RemoveAll()
		only := nullcon.OnlyNNA(m.Schema.NullsOf("MERGED"))
		p52 := "false"
		if ok52 {
			p52 = "true (Rk=" + rk + ")"
		}
		fmt.Printf("%-34s %-10v %-10v %-22s %v\n", join(names), kb, nn, p52, only)
	}
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
		} else {
			cur += string(r)
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
