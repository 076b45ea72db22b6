package state_test

import (
	"fmt"
	"math/rand"
	"strings"
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

// referenceConsistent is the fold Consistent ran before the compiled
// program replaced it: scheme presence, then every FD, IND and null
// constraint through its Satisfied method, in that order.
func referenceConsistent(s *schema.Schema, db *state.DB) error {
	for _, rs := range s.Relations {
		r := db.Relation(rs.Name)
		if r == nil {
			return fmt.Errorf("state: no relation for scheme %s", rs.Name)
		}
		for _, a := range rs.AttrNames() {
			if !r.Has(a) {
				return fmt.Errorf("state: relation %s lacks attribute %s", rs.Name, a)
			}
		}
	}
	for _, fd := range s.FDs {
		if !fd.Satisfied(db.Relation(fd.Scheme)) {
			return fmt.Errorf("state: FD violated: %s", fd)
		}
	}
	for _, ind := range s.INDs {
		if !ind.Satisfied(db.Relation(ind.Left), db.Relation(ind.Right)) {
			return fmt.Errorf("state: IND violated: %s", ind)
		}
	}
	for _, nc := range s.Nulls {
		if !nc.Satisfied(db.Relation(nc.SchemeName())) {
			return fmt.Errorf("state: null constraint violated: %s", nc)
		}
	}
	return nil
}

// verdict is an error's constraint kind: "" for nil, else the words before
// " violated".
func verdict(err error) string {
	if err == nil {
		return ""
	}
	kind, _, _ := strings.Cut(strings.TrimPrefix(err.Error(), "state: "), " violated")
	return kind
}

// differentialDesigns are the designs the program fold is compared on: the
// figures, the merged designs of figures 4–6 with and without RemoveAll,
// star, chain, and random schemes.
func differentialDesigns(t testing.TB) []*schema.Schema {
	t.Helper()
	out := []*schema.Schema{figures.Fig1RS(), figures.Fig1RSPrime(), figures.Fig2(false), figures.Fig2(true), figures.Fig3()}
	for _, set := range [][]string{{"COURSE", "OFFER", "TEACH"}, {"COURSE", "OFFER", "TEACH", "ASSIST"}} {
		for _, removed := range []bool{false, true} {
			m, err := core.Merge(figures.Fig3(), set, "MERGED")
			if err != nil {
				t.Fatal(err)
			}
			if removed {
				m.RemoveAll()
			}
			out = append(out, m.Schema)
		}
	}
	for _, s := range []*schema.Schema{mustMS(t, workload.StarEER(3)), mustMS(t, workload.ChainEER(3))} {
		out = append(out, s)
		m, err := core.Merge(s, workload.MergeSetFor(s, "E0"), "MERGED")
		if err != nil {
			t.Fatal(err)
		}
		m.RemoveAll()
		out = append(out, m.Schema)
	}
	rng := rand.New(rand.NewSource(37))
	for len(out) < 25 {
		if s := randomScheme(rng); s.Validate() == nil {
			out = append(out, s)
		}
	}
	return out
}

func mustMS(t testing.TB, es *eer.Schema) *schema.Schema {
	t.Helper()
	s, err := translate.MS(es)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomScheme draws a design over one domain: two to four relations of two
// to four attributes, keyed by their first one or two, with a non-key FD now
// and then, INDs into earlier relations (key-based or not), NNA on some keys
// and one of each §3 constraint kind here and there.
func randomScheme(rng *rand.Rand) *schema.Schema {
	s := schema.New()
	pick := func(attrs []string, n int) []string {
		out := make([]string, n)
		for i, p := range rng.Perm(len(attrs))[:n] {
			out[i] = attrs[p]
		}
		return out
	}
	for i := 0; i < 2+rng.Intn(3); i++ {
		name := fmt.Sprintf("R%d", i)
		var attrs []schema.Attribute
		for j := 0; j < 2+rng.Intn(3); j++ {
			attrs = append(attrs, schema.Attribute{Name: fmt.Sprintf("%s.A%d", name, j), Domain: "d"})
		}
		rs := schema.NewScheme(name, attrs, schema.AttrNames(attrs[:1+rng.Intn(2)]))
		s.AddScheme(rs)
		names := rs.AttrNames()
		if rng.Intn(3) == 0 {
			s.FDs = append(s.FDs, schema.NewFD(name, pick(names, 1), pick(names, 1)))
		}
		if rng.Intn(2) == 0 {
			s.Nulls = append(s.Nulls, schema.NNA(name, rs.PrimaryKey...))
		}
		switch rng.Intn(5) {
		case 0:
			s.Nulls = append(s.Nulls, schema.NewNullExistence(name, pick(names, 1), pick(names, 1+rng.Intn(2))))
		case 1:
			s.Nulls = append(s.Nulls, schema.NewNullSync(name, pick(names, 2)...))
		case 2:
			s.Nulls = append(s.Nulls, schema.NewPartNull(name, pick(names, 1), pick(names, 2)))
		case 3:
			s.Nulls = append(s.Nulls, schema.NewTotalEquality(name, pick(names, 1), pick(names, 1)))
		}
		if i == 0 || rng.Intn(4) == 0 {
			continue
		}
		right := s.Relations[rng.Intn(i)]
		rattrs := right.PrimaryKey
		if rng.Intn(3) == 0 {
			rattrs = pick(right.AttrNames(), 1)
		}
		s.INDs = append(s.INDs, schema.NewIND(name, pick(names, len(rattrs)), right.Name, rattrs))
	}
	return s
}

// drawBytes draws a state of s as the bytes decodeState reads: per relation
// a row count, then one byte per value (3 is a null, else the value v0–v2).
// Nulls land anywhere — keys, FD left sides, IND left sides.
func drawBytes(rng *rand.Rand, s *schema.Schema) []byte {
	var out []byte
	for _, rs := range s.Relations {
		n := rng.Intn(6)
		out = append(out, byte(n))
		for i := 0; i < n*len(rs.Attrs); i++ {
			if rng.Float64() < 0.3 {
				out = append(out, 3)
			} else {
				out = append(out, byte(rng.Intn(3)))
			}
		}
	}
	return out
}

// decodeState reads drawBytes' encoding; missing bytes leave relations short.
func decodeState(s *schema.Schema, data []byte) *state.DB {
	db := state.New(s)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for _, rs := range s.Relations {
		for n := int(next()) % 6; n > 0; n-- {
			tup := make(relation.Tuple, len(rs.Attrs))
			for i := range tup {
				if b := next() % 4; b < 3 {
					tup[i] = relation.NewString(fmt.Sprintf("v%d", b))
				}
			}
			db.Relation(rs.Name).Add(tup)
		}
	}
	return db
}

// requireAgree fails unless Consistent and the reference fold reach the same
// verdict, down to the violated constraint's kind.
func requireAgree(t *testing.T, s *schema.Schema, db *state.DB) string {
	t.Helper()
	want := verdict(referenceConsistent(s, db))
	if got := verdict(state.Consistent(s, db)); got != want {
		t.Fatalf("Consistent says %q, the reference %q, on\n%s\nover\n%s", got, want, db, s)
	}
	return want
}

// TestConsistentMatchesReference is the differential test of the program
// fold: on every design, random states with nulls anywhere and generated
// consistent states with one random row added get the verdict the
// reference gives, and every verdict comes up.
func TestConsistentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[string]int{}
	for _, s := range differentialDesigns(t) {
		for i := 0; i < 150; i++ {
			seen[requireAgree(t, s, decodeState(s, drawBytes(rng, s)))]++
			db, err := state.Generate(s, rng, state.GenOptions{Rows: 4, NullProb: 0.3, DomainSize: 3})
			if err != nil {
				continue
			}
			seen[requireAgree(t, s, db)]++
			extra := decodeState(s, drawBytes(rng, s))
			rs := s.Relations[rng.Intn(len(s.Relations))]
			if rows := extra.Relation(rs.Name).Tuples(); len(rows) > 0 {
				db.Relation(rs.Name).Add(rows[0])
			}
			seen[requireAgree(t, s, db)]++
		}
	}
	for _, kind := range []string{"", "FD", "IND", "null constraint"} {
		if seen[kind] == 0 {
			t.Errorf("no state got the verdict %q (verdicts: %v)", kind, seen)
		}
	}
}

// FuzzConsistent feeds Consistent and the reference fold arbitrary states of
// the differential designs: the first byte picks the design, the rest is
// drawBytes' encoding.
func FuzzConsistent(f *testing.F) {
	designs := differentialDesigns(f)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*len(designs); i++ {
		d := i % len(designs)
		f.Add(append([]byte{byte(d)}, drawBytes(rng, designs[d])...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := designs[int(data[0])%len(designs)]
		requireAgree(t, s, decodeState(s, data[1:]))
	})
}
