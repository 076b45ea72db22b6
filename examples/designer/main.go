// Designer: the full design loop a practitioner would run — describe the
// domain in the EER DSL, let the advisor price the merge under the expected
// workload, apply it, inspect the provenance trace and migration SQL, and
// verify with the logical query planner that the same query answers
// identically (and more cheaply) on the merged design.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/pkg/relmerge"
)

const ticketing = `
entity EVENT prefix E attrs (E.ID event_id) id (E.ID) copybase (ID)
entity VENUE prefix V attrs (V.NAME venue) id (V.NAME)
entity ORGANIZER prefix OG attrs (OG.ID org_id) id (OG.ID)
entity SPONSOR prefix SP attrs (SP.NAME sponsor) id (SP.NAME)
relationship HOSTED prefix H parts (EVENT many, VENUE one)
relationship RUNS prefix R parts (EVENT many, ORGANIZER one)
relationship BACKED prefix BK parts (EVENT many, SPONSOR one)
`

func main() {
	es, err := sdl.ParseEER(ticketing)
	check(err)
	base, err := translate.MS(es)
	check(err)
	fmt.Printf("base design: %d relations\n\n", len(base.Relations))

	// The advisor under a read-heavy workload.
	recs, err := relmerge.AdviseDesign(base, relmerge.Workload{
		ProfileQueries: map[string]float64{"EVENT": 500},
		Inserts:        map[string]float64{"EVENT": 20},
	}, relmerge.DefaultCostModel())
	check(err)
	fmt.Print(relmerge.DesignReport(recs))

	rec := recs[0]
	if !rec.Merge {
		fmt.Println("advisor says keep split; stopping")
		return
	}

	// Apply the recommended merge.
	m, err := core.Merge(base, rec.Cluster, "EVENT+")
	check(err)
	m.RemoveAll()
	fmt.Println("\nprovenance:")
	for _, line := range m.Trace() {
		fmt.Println("  " + line)
	}
	fmt.Println("\nmigration script:")
	fmt.Print(indent(ddl.MigrationSQL(m)))

	// Load both designs with the same data and compare one query.
	rng := rand.New(rand.NewSource(7))
	st := state.MustGenerate(base, rng, state.GenOptions{
		Rows:    30,
		RowsPer: map[string]int{"HOSTED": 25, "RUNS": 20, "BACKED": 10},
	})
	baseDB := engine.MustOpen(base)
	check(baseDB.LoadCtx(context.Background(), st))
	mergedDB := engine.MustOpen(m.Schema)
	check(mergedDB.LoadCtx(context.Background(), m.MapState(st)))

	basePlanner := &query.BasePlanner{DB: baseDB}
	mergedPlanner := &query.MergedPlanner{DB: mergedDB, M: m}

	eventKey := relation.Tuple{st.Relation("EVENT").Sorted()[0][0]}
	q := query.Query{
		Root: "EVENT", Key: eventKey,
		Want: []string{"E.ID", "H.V.NAME", "R.OG.ID", "BK.SP.NAME"},
	}
	base0, merged0 := baseDB.StatsTotals(), mergedDB.StatsTotals()
	a, err := basePlanner.AnswerCtx(context.Background(), q)
	check(err)
	b, err := mergedPlanner.AnswerCtx(context.Background(), q)
	check(err)

	fmt.Printf("\nevent profile for %v:\n", eventKey)
	for _, attr := range q.Want {
		fmt.Printf("  %-12s base=%-14v merged=%-14v agree=%v\n",
			attr, a[attr], b[attr], a[attr].Identical(b[attr]) || (a[attr].IsNull() && b[attr].IsNull()))
	}
	fmt.Printf("lookups: base=%d merged=%d\n", baseDB.StatsTotals().Sub(base0).Lookups, mergedDB.StatsTotals().Sub(merged0).Lookups)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}
