package state

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/schema"
)

// GenOptions control random consistent-state generation.
type GenOptions struct {
	// Rows is the target tuple count per relation (the realized count may be
	// lower when a scheme's key values must be drawn from a small parent).
	Rows int
	// NullProb is the probability that a nullable non-key attribute not bound
	// by an inclusion dependency is set to null.
	NullProb float64
	// DomainSize bounds the number of distinct values per domain; 0 means
	// 4×Rows.
	DomainSize int
	// RowsPer overrides the target tuple count for specific schemes.
	RowsPer map[string]int
}

func (o GenOptions) rowsFor(scheme string) int {
	if n, ok := o.RowsPer[scheme]; ok {
		return n
	}
	return o.Rows
}

// Generate builds a random database state consistent with the schema. It
// supports the paper's baseline schema form: key dependencies, key-based
// inclusion dependencies whose graph is acyclic, and null constraints whose
// satisfaction is guaranteed by construction for NNA sets (general null
// constraints are handled by rejection per tuple). It returns an error if
// the IND graph has a cycle or the schema is otherwise unsupported.
func Generate(s *schema.Schema, rng *rand.Rand, opts GenOptions) (*DB, error) {
	if opts.Rows <= 0 {
		opts.Rows = 8
	}
	if opts.DomainSize <= 0 {
		opts.DomainSize = 4 * opts.Rows
	}
	order, err := s.LoadOrder()
	if err != nil {
		return nil, err
	}
	db := New(s)
	pools := make(map[string][]relation.Value) // domain -> values
	pool := func(domain string) []relation.Value {
		if vs, ok := pools[domain]; ok {
			return vs
		}
		vs := make([]relation.Value, opts.DomainSize)
		for i := range vs {
			vs[i] = relation.NewString(fmt.Sprintf("%s-%d", domain, i))
		}
		pools[domain] = vs
		return vs
	}

	for _, name := range order {
		rs := s.Scheme(name)
		if err := populate(s, rs, db, rng, opts, pool); err != nil {
			return nil, err
		}
	}
	if err := Consistent(s, db); err != nil {
		return nil, fmt.Errorf("state: generator produced inconsistent state: %w", err)
	}
	return db, nil
}

// MustGenerate is Generate that panics on error (for tests and benches over
// known-good schemas).
func MustGenerate(s *schema.Schema, rng *rand.Rand, opts GenOptions) *DB {
	db, err := Generate(s, rng, opts)
	if err != nil {
		panic(err)
	}
	return db
}

func populate(s *schema.Schema, rs *schema.RelationScheme, db *DB, rng *rand.Rand, opts GenOptions, pool func(string) []relation.Value) error {
	r := db.Relation(rs.Name)
	attrs := rs.AttrNames()
	nna := s.NNAAttrs(rs.Name)

	// Attribute -> IND binding: the attribute participates at position p of
	// an IND into an earlier scheme. Whole-IND bindings are sampled together
	// to respect multi-attribute foreign keys.
	type binding struct {
		ind    schema.IND
		target *relation.Relation
	}
	var bindings []binding
	bound := make(map[string]bool)
	for _, ind := range s.INDsFrom(rs.Name) {
		if ind.Right == rs.Name {
			continue // self-reference: nulls or skip below
		}
		target := db.Relation(ind.Right)
		if target == nil {
			return fmt.Errorf("state: IND target %s not yet populated", ind.Right)
		}
		bindings = append(bindings, binding{ind: ind, target: target})
		for _, a := range ind.LeftAttrs {
			bound[a] = true
		}
	}

	keySet := make(map[string]bool, len(rs.PrimaryKey))
	for _, k := range rs.PrimaryKey {
		keySet[k] = true
	}

	rows := opts.rowsFor(rs.Name)
	tries := rows * 20
	for r.Len() < rows && tries > 0 {
		tries--
		t := make(relation.Tuple, len(attrs))
		ok := true
		// First satisfy IND bindings by sampling target key tuples.
		for _, b := range bindings {
			proj := b.target.TotalProject(b.ind.RightAttrs)
			if proj.Len() == 0 {
				// No parent values: attributes must be null, which requires
				// them nullable and outside the primary key.
				for _, a := range b.ind.LeftAttrs {
					if nna[a] || keySet[a] {
						ok = false
						break
					}
					t[indexOf(attrs, a)] = relation.Null()
				}
				if !ok {
					break
				}
				continue
			}
			sample := proj.Tuples()[rng.Intn(proj.Len())]
			for i, a := range b.ind.LeftAttrs {
				t[indexOf(attrs, a)] = sample[i]
			}
		}
		if !ok {
			break // unsatisfiable now; likely parent empty
		}
		// Fill unbound attributes.
		for i, a := range attrs {
			if bound[a] {
				continue
			}
			vs := pool(rs.Domain(a))
			if !keySet[a] && !nna[a] && rng.Float64() < opts.NullProb {
				t[i] = relation.Null()
			} else {
				t[i] = vs[rng.Intn(len(vs))]
			}
		}
		// Enforce key uniqueness (Identical semantics).
		keyPos := r.Positions(rs.PrimaryKey)
		keyVal := t.Project(keyPos)
		dup := false
		for _, existing := range r.Tuples() {
			if existing.Project(keyPos).Identical(keyVal) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// Rejection step for any general null constraint of this scheme.
		r.Add(t)
		bad := false
		for _, nc := range s.NullsOf(rs.Name) {
			if !nc.Satisfied(r) {
				bad = true
				break
			}
		}
		if bad {
			r.Remove(t)
		}
	}
	return nil
}

func indexOf(attrs []string, a string) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	panic("state: attribute not in scheme: " + a)
}
