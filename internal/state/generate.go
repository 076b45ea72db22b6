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

	prog, err := schema.Compile(s)
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		populate(prog, s.Scheme(name), db, rng, opts, pool)
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

// populate draws rows for rs, keeping each with a new primary key that passes
// the program's per-tuple check. IND targets load before rs and do not change
// while it is populated, so their total projections are taken once.
func populate(prog *schema.Program, rs *schema.RelationScheme, db *DB, rng *rand.Rand, opts GenOptions, pool func(string) []relation.Value) {
	r := db.Relation(rs.Name)
	check := prog.Rel(rs.Name)
	keyPos := check.Hdr.Positions(rs.PrimaryKey)
	// never: positions no row may leave null (key, NNA); bound: IND-filled.
	never, bound := make([]bool, len(rs.Attrs)), make([]bool, len(rs.Attrs))
	for _, ps := range [][]int{keyPos, check.NNA} {
		for _, p := range ps {
			never[p] = true
		}
	}
	// Whole-IND bindings into earlier schemes, sampled together to respect
	// multi-attribute foreign keys: left positions, π↓ of the right side.
	type binding struct {
		pos  []int
		proj []relation.Tuple
	}
	var bindings []binding
	for _, c := range prog.INDs {
		if c.IND.Left != rs.Name || c.IND.Right == rs.Name {
			continue // self-reference: nulls or skip below
		}
		bindings = append(bindings, binding{c.LeftPos, db.Relation(c.IND.Right).TotalProject(c.IND.RightAttrs).Tuples()})
		for _, p := range c.LeftPos {
			bound[p] = true
		}
	}
	keys := make(map[string]bool)
	rows := opts.rowsFor(rs.Name)
	for tries := rows * 20; r.Len() < rows && tries > 0; tries-- {
		t := make(relation.Tuple, len(rs.Attrs))
		// First satisfy IND bindings by sampling target key tuples.
		for _, b := range bindings {
			if len(b.proj) > 0 {
				sample := b.proj[rng.Intn(len(b.proj))]
				for i, p := range b.pos {
					t[p] = sample[i]
				}
				continue
			}
			// No parent values: the attributes must be null, which requires
			// them nullable and outside the primary key.
			for _, p := range b.pos {
				if never[p] {
					return // unsatisfiable while the parent is empty
				}
				t[p] = relation.Null()
			}
		}
		// Fill unbound attributes.
		for i, a := range rs.Attrs {
			if bound[i] {
				continue
			}
			vs := pool(a.Domain)
			if !never[i] && rng.Float64() < opts.NullProb {
				t[i] = relation.Null()
			} else {
				t[i] = vs[rng.Intn(len(vs))]
			}
		}
		// Key uniqueness (nulls identical, by the key encoding), then the
		// null constraints of the scheme on the candidate alone.
		key := string(t.AppendKeyAt(nil, keyPos))
		if keys[key] || check.Broken(t) != "" {
			continue
		}
		keys[key] = true
		r.Add(t)
	}
}
