// University: the paper's running example end-to-end — the figure 3 schema,
// the figure 4 and figure 5 merges, the figure 6 removals, the applicability
// checks of Propositions 5.1 and 5.2, and DDL generation for the three
// dialect families of section 5.1.
package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/figures"
	"repro/internal/schema"
)

func main() {
	s := figures.Fig3()
	fmt.Println("figure 3 — the university schema:")
	fmt.Print(indent(s.String()))

	// Figure 4: merging COURSE, OFFER, TEACH leaves ASSIST outside, which
	// turns its reference to OFFER into a non-key-based dependency.
	m4, err := core.Merge(s, []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	check(err)
	fmt.Println("\nfigure 4 — Merge(COURSE, OFFER, TEACH):")
	fmt.Print(indent(m4.Schema.String()))
	fmt.Printf("  all dependencies key-based: %v (ASSIST now references a non-key attribute)\n",
		core.AllINDsKeyBased(m4.Schema))
	fmt.Printf("  O.C.NR removable here: %v\n", m4.IsRemovable("OFFER") == nil)

	// Figure 5: adding ASSIST to the merge set internalizes that dependency.
	m5, err := core.Merge(s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	check(err)
	fmt.Println("\nfigure 5 — Merge(COURSE, OFFER, TEACH, ASSIST):")
	fmt.Print(indent(m5.Schema.String()))

	// Figure 6: every key copy is now removable.
	removed := m5.RemoveAll()
	fmt.Printf("\nfigure 6 — after Remove of the %v key copies:\n", removed)
	fmt.Print(indent(m5.Schema.String()))

	// The figure 6 result still carries null-existence constraints, so a
	// declarative-only system cannot maintain it...
	_, err = ddl.Generate(m5.Schema, ddl.Options{Dialect: ddl.DB2})
	fmt.Printf("\nDB2 accepts the figure 6 schema: %v\n", err == nil)
	if err != nil {
		fmt.Print(indent(err.Error()))
	}

	// ...but SYBASE 4.0 compiles the constraints to triggers.
	sybase, err := ddl.Generate(m5.Schema, ddl.Options{Dialect: ddl.Sybase})
	check(err)
	fmt.Printf("\nSYBASE DDL (%d lines; triggers excerpted):\n", strings.Count(sybase, "\n"))
	for _, line := range strings.Split(sybase, "\n") {
		if strings.HasPrefix(line, "CREATE TRIGGER") {
			fmt.Println("  " + line)
		}
	}

	// The Prop. 5.2 alternative: merge only OFFER, TEACH, ASSIST. The result
	// is maintainable everywhere.
	m52, err := core.Merge(figures.Fig3(), []string{"OFFER", "TEACH", "ASSIST"}, "OFFER'")
	check(err)
	m52.RemoveAll()
	fmt.Println("\nthe Prop. 5.2 merge — Merge(OFFER, TEACH, ASSIST) + RemoveAll:")
	fmt.Print(indent(m52.Schema.String()))
	prog, err := schema.Compile(m52.Schema)
	check(err)
	fmt.Printf("  only nulls-not-allowed constraints: %v\n", len(prog.Rel("OFFER'").Nulls) == 0)
	_, err = ddl.Generate(m52.Schema, ddl.Options{Dialect: ddl.DB2})
	fmt.Printf("  DB2 accepts it: %v\n", err == nil)
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
