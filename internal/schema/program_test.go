package schema_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
)

// randomRow fills arity columns with nulls and values from a domain of three,
// so null patterns of every shape and both equal and unequal pairs come up.
func randomRow(rng *rand.Rand, arity int) relation.Tuple {
	row := make(relation.Tuple, arity)
	for i := range row {
		if rng.Intn(3) > 0 {
			row[i] = relation.NewString(fmt.Sprintf("v%d", rng.Intn(3)))
		}
	}
	return row
}

// agree checks one compiled constraint against its reference on one row: the
// check on the tuple must decide what Satisfied decides on the one-row
// relation holding it.
func agree(t *testing.T, nc schema.NullConstraint, hdr *relation.Relation, row relation.Tuple) {
	t.Helper()
	c, err := schema.CompileNull(nc, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.OK(row), nc.Satisfied(relation.FromTuples(hdr.Attrs(), row)); got != want {
		t.Fatalf("%s on %v: compiled check says %v, Satisfied says %v", nc, row, got, want)
	}
}

// TestCompiledNullChecksMatchReference is the differential test of the
// program's null-constraint evaluator: for each of the four constraint kinds,
// over random attribute lists and random null patterns, and for every null
// constraint of the figures' merged schemas, the compiled check equals the
// schema package's Satisfied — the engine's null semantics, kept bit for bit.
func TestCompiledNullChecksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	hdr := relation.New(attrs...)
	pick := func(n int) []string {
		out := make([]string, n)
		for i, p := range rng.Perm(len(attrs))[:n] {
			out[i] = attrs[p]
		}
		return out
	}
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(3)
		constraints := []schema.NullConstraint{
			schema.NewNullExistence("R", pick(rng.Intn(3)), pick(1+rng.Intn(3))),
			schema.NewNullSync("R", pick(1+rng.Intn(4))...),
			schema.NewPartNull("R", pick(1+rng.Intn(2)), pick(1+rng.Intn(3))),
			schema.NewTotalEquality("R", pick(n), pick(n)),
		}
		for _, nc := range constraints {
			for i := 0; i < 40; i++ {
				agree(t, nc, hdr, randomRow(rng, len(attrs)))
			}
		}
	}

	merges := []struct {
		set  []string
		name string
	}{
		{[]string{"COURSE", "OFFER", "TEACH"}, "COURSE'"},            // figure 4
		{[]string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''"}, // figures 5–6
	}
	for _, m := range merges {
		for _, removed := range []bool{false, true} {
			ms, err := core.Merge(figures.Fig3(), m.set, m.name)
			if err != nil {
				t.Fatal(err)
			}
			if removed {
				ms.RemoveAll()
			}
			checked := 0
			for _, nc := range ms.Schema.Nulls {
				rs := ms.Schema.Scheme(nc.SchemeName())
				h := relation.New(rs.AttrNames()...)
				for i := 0; i < 200; i++ {
					agree(t, nc, h, randomRow(rng, len(rs.Attrs)))
				}
				checked++
			}
			if checked == 0 {
				t.Fatalf("%s (removed=%v) carries no null constraint", m.name, removed)
			}
		}
	}
}

// row builds a tuple from strings, "-" standing for a null.
func row(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		if v != "-" {
			t[i] = relation.NewString(v)
		}
	}
	return t
}

// TestNullSemantics is the table behind DESIGN.md's null-semantics table:
// what a null means to each kind of constraint, as the program decides it.
// R(K, A, B) is keyed by K and carries each case's extra constraint; S(S.K,
// S.A) is keyed by S.K and is the right side of each case's IND. Every
// verdict is also the Satisfied reference's.
func TestNullSemantics(t *testing.T) {
	fd := func(lhs, rhs string) func(*schema.Schema) {
		return func(s *schema.Schema) { s.FDs = append(s.FDs, schema.NewFD("R", []string{lhs}, []string{rhs})) }
	}
	ind := func(left, right string) func(*schema.Schema) {
		return func(s *schema.Schema) {
			s.INDs = append(s.INDs, schema.NewIND("R", []string{left}, "S", []string{right}))
		}
	}
	null := func(nc schema.NullConstraint) func(*schema.Schema) {
		return func(s *schema.Schema) { s.Nulls = append(s.Nulls, nc) }
	}
	candidate := func(s *schema.Schema) {
		s.Relations[0].CandidateKeys = [][]string{{"A"}}
		s.Nulls = append(s.Nulls, schema.NewTotalEquality("R", []string{"A"}, []string{"K"}))
	}
	cases := []struct {
		name string
		with func(*schema.Schema)
		r, s []relation.Tuple
		kind string // "" when consistent
	}{
		{"primary key: one null key", nil, []relation.Tuple{row("-", "a", "b")}, nil, ""},
		{"primary key: two null keys are one key", nil, []relation.Tuple{row("-", "a1", "b"), row("-", "a2", "b")}, nil, "FD"},
		{"candidate key: nulls never clash", candidate, []relation.Tuple{row("k1", "-", "b"), row("k2", "-", "b")}, nil, ""},
		{"candidate key: unique through =⊥ with the key", candidate, []relation.Tuple{row("k1", "k1", "b"), row("k2", "k1", "b")}, nil, "null constraint"},
		{"FD left side: nulls agree", fd("A", "B"), []relation.Tuple{row("k1", "-", "b1"), row("k2", "-", "b2")}, nil, "FD"},
		{"FD right side: null identical to null", fd("A", "B"), []relation.Tuple{row("k1", "a", "-"), row("k2", "a", "-")}, nil, ""},
		{"FD right side: null differs from a value", fd("A", "B"), []relation.Tuple{row("k1", "a", "-"), row("k2", "a", "b")}, nil, "FD"},
		{"IND left side: a null exempts the row", ind("A", "S.K"), []relation.Tuple{row("k1", "-", "b")}, nil, ""},
		{"IND left side: a total row needs a match", ind("A", "S.K"), []relation.Tuple{row("k1", "a", "b")}, []relation.Tuple{row("x", "-")}, "IND"},
		{"IND right side: a null references nothing", ind("A", "S.A"), []relation.Tuple{row("k1", "a", "b")}, []relation.Tuple{row("a", "-")}, "IND"},
		{"IND right side: total rows are referenced", ind("A", "S.A"), []relation.Tuple{row("k1", "a", "b")}, []relation.Tuple{row("x", "a")}, ""},
		{"NNA ∅ ⊑ A: no null", null(schema.NNA("R", "A")), []relation.Tuple{row("k1", "-", "b")}, nil, "null constraint"},
		{"A ⊑ B: total A needs total B", null(schema.NewNullExistence("R", []string{"A"}, []string{"B"})), []relation.Tuple{row("k1", "a", "-")}, nil, "null constraint"},
		{"A ⊑ B: null A asks nothing", null(schema.NewNullExistence("R", []string{"A"}, []string{"B"})), []relation.Tuple{row("k1", "-", "-")}, nil, ""},
		{"NS(A, B): partly null", null(schema.NewNullSync("R", "A", "B")), []relation.Tuple{row("k1", "a", "-")}, nil, "null constraint"},
		{"NS(A, B): all null", null(schema.NewNullSync("R", "A", "B")), []relation.Tuple{row("k1", "-", "-")}, nil, ""},
		{"PN(A, B): no total set", null(schema.NewPartNull("R", []string{"A"}, []string{"B"})), []relation.Tuple{row("k1", "-", "-")}, nil, "null constraint"},
		{"PN(A, B): one total set", null(schema.NewPartNull("R", []string{"A"}, []string{"B"})), []relation.Tuple{row("k1", "-", "b")}, nil, ""},
		{"A =⊥ B: total and unequal", null(schema.NewTotalEquality("R", []string{"A"}, []string{"B"})), []relation.Tuple{row("k1", "a", "b")}, nil, "null constraint"},
		{"A =⊥ B: a null side asks nothing", null(schema.NewTotalEquality("R", []string{"A"}, []string{"B"})), []relation.Tuple{row("k1", "a", "-")}, nil, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := schema.New()
			s.AddScheme(schema.NewScheme("R", []schema.Attribute{{Name: "K", Domain: "d"}, {Name: "A", Domain: "d"}, {Name: "B", Domain: "d"}}, []string{"K"}))
			s.AddScheme(schema.NewScheme("S", []schema.Attribute{{Name: "S.K", Domain: "d"}, {Name: "S.A", Domain: "d"}}, []string{"S.K"}))
			if c.with != nil {
				c.with(s)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			rels := map[string]*relation.Relation{"R": relation.FromTuples([]string{"K", "A", "B"}, c.r...), "S": relation.FromTuples([]string{"S.K", "S.A"}, c.s...)}
			p, err := schema.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			err = p.Check(func(name string, yield func(relation.Tuple) bool) {
				for _, tup := range rels[name].Tuples() {
					if !yield(tup) {
						return
					}
				}
			})
			got, _, _ := strings.Cut(fmt.Sprint(err), " violated")
			if err == nil {
				got = ""
			}
			if got != c.kind || got != referenceKind(s, rels) {
				t.Fatalf("program says %q (%v), want %q, reference %q", got, err, c.kind, referenceKind(s, rels))
			}
		})
	}
}

// referenceKind is the Satisfied reference's verdict on rels, kind by kind.
func referenceKind(s *schema.Schema, rels map[string]*relation.Relation) string {
	for _, fd := range s.FDs {
		if !fd.Satisfied(rels[fd.Scheme]) {
			return "FD"
		}
	}
	for _, ind := range s.INDs {
		if !ind.Satisfied(rels[ind.Left], rels[ind.Right]) {
			return "IND"
		}
	}
	for _, nc := range s.Nulls {
		if !nc.Satisfied(rels[nc.SchemeName()]) {
			return "null constraint"
		}
	}
	return ""
}
