package core_test

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/eer"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/internal/workload"
)

// The compiled Mapping against its reference, MapState and UnmapState.
//
// Precondition: the states are consistent (state.Generate). There the
// key-relation holds every member's key value (Prop. 3.1), so a walk over
// the drivers' keys, looking each member up under the same key, is the
// paper's full outer-equi-join — the left outer join MigrationSQL prints.

// mergeCase is one merge of a base design.
type mergeCase struct {
	name string
	base *schema.Schema
	m    *core.MergedScheme
}

// mappingCases is TestEveryDesignOpens' corpus as merges: every base design
// merged around each of its relations, with and without RemoveAll, plus
// figure 2's synthetic ASSIGN and TestMergeRandomizedSchemas' random
// clusters. The order is fixed, so a fuzz input names the same merge on
// every run.
func mappingCases(t testing.TB) []mergeCase {
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
	var out []mergeCase
	add := func(name string, s *schema.Schema, set []string, removeAll bool) {
		m, err := core.Merge(s, set, "MERGED")
		if err != nil {
			return // no merge around this root
		}
		if removeAll {
			name += " RemoveAll"
			m.RemoveAll()
		}
		out = append(out, mergeCase{name, s, m})
	}
	names := make([]string, 0, len(designs))
	for name := range designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := designs[name]
		for _, root := range s.SchemeNames() {
			if set := workload.MergeSetFor(s, root); len(set) > 1 {
				add(name+" around "+root, s, set, false)
				add(name+" around "+root, s, set, true)
			}
		}
	}
	m, err := core.Merge(figures.Fig2(false), []string{"OFFER", "TEACH"}, "ASSIGN")
	if err != nil || !m.Synthetic {
		t.Fatalf("figure 2's ASSIGN: synthetic=%v, %v", m != nil && m.Synthetic, err)
	}
	m.RemoveAll()
	out = append(out, mergeCase{"fig2 ASSIGN", figures.Fig2(false), m})
	rng := rand.New(rand.NewSource(20260704))
	for i := 0; i < 40; i++ {
		s, members := core.RandomCluster(rng)
		add("random cluster", s, members, i%2 == 0)
	}
	return out
}

// eta maps db's merge members through the compiled η, walking keys as the
// engine's migration does.
func eta(m *core.MergedScheme, db *state.DB) *relation.Relation {
	mp := m.Mapping()
	byKey := make([]map[string]relation.Tuple, len(m.Members))
	for i, mb := range m.Members {
		r := db.Relation(mb.Name).Project(mb.Attrs)
		pos := r.Positions(mb.Key)
		byKey[i] = make(map[string]relation.Tuple, r.Len())
		for _, tup := range r.Tuples() {
			byKey[i][string(tup.AppendKeyAt(nil, pos))] = tup
		}
	}
	out := relation.New(m.Schema.Scheme(m.Name).AttrNames()...)
	parts := make([]relation.Tuple, len(m.Members))
	done := make(map[string]bool)
	for _, d := range mp.Drivers {
		for key := range byKey[d] {
			if done[key] {
				continue
			}
			done[key] = true
			for i := range parts {
				parts[i] = byKey[i][key]
			}
			out.Add(mp.Eta(parts))
		}
	}
	return out
}

// checkMapping requires η to equal MapState on db, η′ to equal UnmapState
// on the result, and η′∘η to give db's members back.
func checkMapping(t *testing.T, c mergeCase, db *state.DB) {
	t.Helper()
	m := c.m
	mapped := m.MapState(db)
	got := eta(m, db)
	if want := mapped.Relation(m.Name); !got.EqualUpToOrder(want) {
		t.Fatalf("%s: η differs from MapState\ngot:\n%s\nwant:\n%s", c.name, got, want)
	}
	back := m.UnmapState(mapped)
	for i, mb := range m.Members {
		r := relation.New(mb.Attrs...)
		for _, row := range got.Tuples() {
			if tup, ok := m.Mapping().EtaInv(row, i); ok {
				r.Add(tup)
			}
		}
		if want := back.Relation(mb.Name); !r.EqualUpToOrder(want) {
			t.Fatalf("%s: η′ of %s differs from UnmapState\ngot:\n%s\nwant:\n%s", c.name, mb.Name, r, want)
		}
		if !r.EqualUpToOrder(db.Relation(mb.Name)) {
			t.Fatalf("%s: η′∘η changed %s", c.name, mb.Name)
		}
	}
}

// generate draws a consistent state of the case's base design, members
// ragged so that some keys miss some members.
func generate(t *testing.T, c mergeCase, rng *rand.Rand, rows int) *state.DB {
	t.Helper()
	per := make(map[string]int, len(c.m.Members))
	for _, mb := range c.m.Members {
		per[mb.Name] = rng.Intn(rows + 1)
	}
	db, err := state.Generate(c.base, rng, state.GenOptions{Rows: rows, RowsPer: per})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return db
}

func TestMappingMatchesReference(t *testing.T) {
	cases := mappingCases(t)
	rng := rand.New(rand.NewSource(41))
	for _, c := range cases {
		for rep := 0; rep < 3; rep++ {
			checkMapping(t, c, generate(t, c, rng, 1+rng.Intn(8)))
		}
	}
	t.Logf("%d merges", len(cases))
}

// FuzzMapping: the first byte picks a merge of mappingCases, the next eight
// seed state.Generate, the last sets the row count.
func FuzzMapping(f *testing.F) {
	cases := mappingCases(f)
	for i := range cases {
		f.Add(append([]byte{byte(i)}, 0, 0, 0, 0, 0, 0, 0, byte(i), 5))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		c := cases[int(data[0])%len(cases)]
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[1:9]))))
		checkMapping(t, c, generate(t, c, rng, 1+int(data[9])%12))
	})
}
