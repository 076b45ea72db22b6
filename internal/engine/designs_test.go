package engine_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/eer"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/internal/workload"
)

// everyDesign returns the designs the repo builds, by name: the figures, the
// EER fixtures of the experiments, star and chain.
func everyDesign(t *testing.T) map[string]*schema.Schema {
	t.Helper()
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
	return designs
}

// TestEveryDesignOpens: refusing FDs that are not key dependencies leaves
// every design the repo builds openable, each as built and merged around
// every relation, with and without RemoveAll.
func TestEveryDesignOpens(t *testing.T) {
	opened := 0
	open := func(name string, d *schema.Schema) {
		t.Helper()
		if _, err := engine.Open(d); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		opened++
	}
	for name, s := range everyDesign(t) {
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

// TestMigrateEveryDesign: a live migration by spec installs exactly MapState
// of the state it started from, on every design merged around every
// relation, and on figure 2's synthetic-key merge {OFFER, TEACH} → ASSIGN.
func TestMigrateEveryDesign(t *testing.T) {
	designs := everyDesign(t)
	type migration struct {
		design string
		spec   core.Spec
	}
	migrations := []migration{{"fig2", core.Spec{Cluster: []string{"OFFER", "TEACH"}, Name: "ASSIGN"}}}
	names := make([]string, 0, len(designs))
	for name := range designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, root := range designs[name].SchemeNames() {
			if set := workload.MergeSetFor(designs[name], root); len(set) > 1 {
				migrations = append(migrations, migration{name, core.Spec{Cluster: set, Name: "MERGED"}})
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	migrated, synthetic := 0, 0
	for _, mg := range migrations {
		s := designs[mg.design]
		m, err := mg.spec.Derive(s)
		if err != nil {
			continue // members Merge refuses
		}
		// Ragged member sizes, so that some keys miss some members.
		rows := 1 + rng.Intn(12)
		per := make(map[string]int, len(mg.spec.Cluster))
		for _, name := range mg.spec.Cluster {
			per[name] = rng.Intn(rows + 1)
		}
		pre, err := state.Generate(s, rng, state.GenOptions{Rows: rows, RowsPer: per})
		if err != nil {
			t.Fatalf("%s: %v", mg.design, err)
		}
		db := engine.MustOpen(s)
		if err := db.LoadCtx(context.Background(), pre); err != nil {
			t.Fatalf("%s: load: %v", mg.design, err)
		}
		if err := db.MigrateSchema(mg.spec); err != nil {
			t.Fatalf("%s: migrate %v: %v", mg.design, mg.spec, err)
		}
		if got, want := db.Snapshot(), m.MapState(pre); !got.Equal(want) {
			t.Fatalf("%s: migration by %v installed\n%s\nwant MapState\n%s", mg.design, mg.spec, got, want)
		}
		if m.Synthetic {
			synthetic++
		}
		migrated++
	}
	t.Logf("%d of %d migrations ran, %d of them synthetic", migrated, len(migrations), synthetic)
}
