// Command benchreport regenerates the paper-facing artifacts of Markowitz
// (ICDE 1992): the worked figures 1–8 (experiments E1–E8) and the empirical
// verification of Propositions 3.1, 4.1, 4.2, 5.1, and 5.2 (E9–E10). Every
// experiment is deterministic and pinned byte-for-byte by a golden file in
// testdata/. Performance is measured elsewhere: the system benchmark is
// relbench (benchmark/, BENCHMARK.json) and the micro-benchmarks live in
// bench_test.go.
//
// Usage:
//
//	benchreport            # run everything
//	benchreport -only E4   # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	only := flag.String("only", "", "run a single experiment (e.g. E4)")
	flag.Parse()

	experiments := []experiment{
		{"E1", "Figure 1: ER translation vs. the Teorey baseline (the WORKS anomaly)", runE1},
		{"E2", "Figure 2 and the synthesis baseline: OFFER + TEACH → ASSIGN", runE2},
		{"E3", "Figure 3: the university schema", runE3},
		{"E4", "Figure 4: Merge(COURSE, OFFER, TEACH)", runE4},
		{"E5", "Figure 5: Merge(COURSE, OFFER, TEACH, ASSIST)", runE5},
		{"E6", "Figure 6: Remove(O.C.NR, T.C.NR, A.C.NR)", runE6},
		{"E7", "Figure 7: the EER schema and its translation", runE7},
		{"E8", "Figure 8: structures amenable to single-relation representation", runE8},
		{"E9", "Props. 3.1/4.1/4.2: key-relations, information capacity, BCNF", runE9},
		{"E10", "Props. 5.1/5.2: DBMS applicability conditions", runE10},
	}

	matched := false
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		matched = true
		fmt.Printf("═══ %s — %s\n\n", e.id, e.title)
		e.run()
		fmt.Println()
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchreport: unknown experiment %q\n", *only)
		os.Exit(1)
	}
}
