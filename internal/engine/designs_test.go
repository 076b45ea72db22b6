package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eer"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestEveryDesignOpens: refusing FDs that are not key dependencies leaves
// every design the repo builds openable — the figures, the EER fixtures of
// the experiments, star and chain, each as built and merged around every
// relation, with and without RemoveAll.
func TestEveryDesignOpens(t *testing.T) {
	designs := map[string]*schema.Schema{
		"fig1": figures.Fig1RS(), "fig1-prime": figures.Fig1RSPrime(),
		"fig2": figures.Fig2(false), "fig2-linked": figures.Fig2(true), "fig3": figures.Fig3(),
	}
	for name, es := range map[string]*eer.Schema{
		"eer-fig1": eer.Fig1(), "eer-fig7": eer.Fig7(), "fig8i": eer.Fig8i(), "fig8ii": eer.Fig8ii(),
		"fig8iii": eer.Fig8iii(), "fig8iv": eer.Fig8iv(), "star8": workload.StarEER(8), "chain6": workload.ChainEER(6),
	} {
		s, err := translate.MS(es)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		designs[name] = s
	}
	opened := 0
	open := func(name string, d *schema.Schema) {
		t.Helper()
		if _, err := engine.Open(d); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		opened++
	}
	for name, s := range designs {
		open(name, s)
		for _, root := range s.SchemeNames() {
			set := workload.MergeSetFor(s, root)
			for _, removed := range []bool{false, true} {
				m, err := core.Merge(s, set, "MERGED")
				if len(set) < 2 || err != nil {
					break // nothing to merge, or no key-relation to merge around
				}
				if removed {
					m.RemoveAll()
				}
				open(name+" merged around "+root, m.Schema)
			}
		}
	}
	t.Logf("%d designs opened", opened)
}
