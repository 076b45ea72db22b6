// Package state models database states of a relational schema — the set of
// relations associated with its relation-schemes — together with consistency
// checking against the schema's dependencies and constraints, and generation
// of random consistent states for property-based verification of the paper's
// information-capacity theorems (Props. 4.1 and 4.2).
package state

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
	"repro/internal/schema"
)

// DB is a database state: one relation per relation-scheme, keyed by scheme
// name. Relations use the scheme's attribute order.
type DB struct {
	Relations map[string]*relation.Relation
}

// New returns an empty database state for the schema: every scheme gets an
// empty relation over its attribute list.
func New(s *schema.Schema) *DB {
	db := &DB{Relations: make(map[string]*relation.Relation, len(s.Relations))}
	for _, rs := range s.Relations {
		db.Relations[rs.Name] = relation.New(rs.AttrNames()...)
	}
	return db
}

// Relation returns the relation of the named scheme, or nil.
func (db *DB) Relation(name string) *relation.Relation {
	return db.Relations[name]
}

// Set installs a relation under the scheme name.
func (db *DB) Set(name string, r *relation.Relation) { db.Relations[name] = r }

// Clone returns a deep copy of the state.
func (db *DB) Clone() *DB {
	c := &DB{Relations: make(map[string]*relation.Relation, len(db.Relations))}
	for name, r := range db.Relations {
		c.Relations[name] = r.Clone()
	}
	return c
}

// Equal reports whether the two states cover the same schemes with equal
// relations (tuple sets compared up to attribute order).
func (db *DB) Equal(other *DB) bool {
	if len(db.Relations) != len(other.Relations) {
		return false
	}
	for name, r := range db.Relations {
		o, ok := other.Relations[name]
		if !ok || !r.EqualUpToOrder(o) {
			return false
		}
	}
	return true
}

// Apply applies one physical mutation: insert adds tup to the named
// relation, otherwise tup is removed. It is the replay primitive of the
// engine's write-ahead log recovery, which reconstructs a state one logged
// mutation at a time before re-validating it with Consistent.
func (db *DB) Apply(name string, insert bool, tup relation.Tuple) error {
	r := db.Relations[name]
	if r == nil {
		return fmt.Errorf("state: no relation %s", name)
	}
	if len(tup) != r.Arity() {
		return fmt.Errorf("state: arity mismatch applying to %s: tuple has %d values, scheme %d", name, len(tup), r.Arity())
	}
	if insert {
		r.Add(tup)
	} else {
		r.Remove(tup)
	}
	return nil
}

// TotalTuples returns the total number of tuples across all relations.
func (db *DB) TotalTuples() int {
	n := 0
	for _, r := range db.Relations {
		n += r.Len()
	}
	return n
}

// Replay feeds the state to insertBatch one relation at a time, in the
// schema's load order, so every inclusion-dependency target is loaded before
// the relations referencing it. Relations absent from the state (or empty)
// are skipped; one whose columns are ordered differently from its scheme is
// re-projected first. Cancellation is checked between relations, so an
// abandoned replay stops at a relation boundary.
func (db *DB) Replay(ctx context.Context, s *schema.Schema, insertBatch func(ctx context.Context, name string, tuples []relation.Tuple) error) error {
	order, err := s.LoadOrder()
	if err != nil {
		return err
	}
	for _, name := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := db.Relation(name)
		if r == nil || r.Len() == 0 {
			continue
		}
		if want := s.Scheme(name).AttrNames(); !slices.Equal(r.Attrs(), want) {
			r = r.Project(want)
		}
		if err := insertBatch(ctx, name, r.Tuples()); err != nil {
			return fmt.Errorf("loading %s: %w", name, err)
		}
	}
	return nil
}

// String renders the state deterministically (schemes in name order).
func (db *DB) String() string {
	names := make([]string, 0, len(db.Relations))
	for name := range db.Relations {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s%s\n", name, db.Relations[name])
	}
	return b.String()
}

// Consistent reports whether the state satisfies every dependency and
// constraint of the schema, returning a descriptive error for the first
// violation found (nil if consistent). Checks run in a fixed order: scheme
// presence, FDs, INDs, null constraints.
func Consistent(s *schema.Schema, db *DB) error {
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

// IsConsistent is Consistent as a boolean.
func IsConsistent(s *schema.Schema, db *DB) bool { return Consistent(s, db) == nil }
