// Package nullcon implements inference and simplification for the null
// constraints of Markowitz (ICDE 1992), section 3:
//
//   - null-existence constraints Y ⊑ Z obey inference axioms of the same form
//     as the Armstrong axioms for functional dependencies (reflexivity,
//     augmentation, transitivity), so implication reduces to an
//     attribute-closure computation;
//   - total-equality constraints Y =⊥ Z obey axioms analogous to Klug's
//     equality-constraint axioms (reflexivity, symmetry, transitivity), so
//     implication reduces to an equivalence-class computation over attribute
//     pairs;
//   - part-null constraints PN(Y1,…,Ym) are compared by subsumption (a PN
//     constraint is weaker when each of its sets contains some set of the
//     stronger constraint).
//
// The three families do not interact with each other (section 3), so
// implication is decided family-by-family.
package nullcon

import (
	"repro/internal/attrset"
	"repro/internal/obs"
	"repro/internal/schema"
)

// engine answers all null-existence closure questions. Null-existence
// constraints are FD-shaped (Y ⊑ Z obeys the Armstrong-form axioms of
// section 3), so the same indexed counter algorithm applies; a nulls-not-
// allowed constraint is an empty-LHS dependency and fires unconditionally.
var engine = attrset.NewEngine()

// RegisterMetrics publishes the package engine's cache counters into a
// metrics registry under engine=nullcon.
func RegisterMetrics(r *obs.Registry) { engine.Register(r, "nullcon") }

// existenceIndex compiles the constraints attached to one scheme. The
// filtered list is rebuilt per call, but the compile itself is cached by
// structural fingerprint, so the ubiquitous pattern of Simplify/Implied —
// same constraint set, many seeds — pays one compile and then only hashing.
func existenceIndex(scheme string, nes []schema.NullExistence) *attrset.Index {
	filtered := make([]schema.NullExistence, 0, len(nes))
	for _, ne := range nes {
		if ne.Scheme == scheme {
			filtered = append(filtered, ne)
		}
	}
	return engine.Index(len(filtered), func(i int) ([]string, []string) {
		return filtered[i].Y, filtered[i].Z
	})
}

// Classify splits a constraint list into its three reasoning families,
// expanding null-synchronization sets into their null-existence members.
func Classify(nulls []schema.NullConstraint) (nes []schema.NullExistence, pns []schema.PartNull, tes []schema.TotalEquality) {
	for _, nc := range nulls {
		switch c := nc.(type) {
		case schema.NullExistence:
			nes = append(nes, c)
		case schema.NullSync:
			nes = append(nes, c.Expand()...)
		case schema.PartNull:
			pns = append(pns, c)
		case schema.TotalEquality:
			tes = append(tes, c)
		}
	}
	return nes, pns, tes
}

// CloseExistence computes the set of attributes forced total whenever the
// attributes of y are total, under the given null-existence constraints of a
// single scheme — the analogue of FD attribute closure. Constraints attached
// to other schemes are ignored.
func CloseExistence(scheme string, nes []schema.NullExistence, y []string) []string {
	names := engine.ClosureNames(existenceIndex(scheme, nes), y)
	return append(make([]string, 0, len(names)), names...)
}

// ImpliesExistence reports whether the null-existence constraints imply ne.
func ImpliesExistence(nes []schema.NullExistence, ne schema.NullExistence) bool {
	return engine.Contains(existenceIndex(ne.Scheme, nes), ne.Y, ne.Z)
}

// TotalAttrs returns the attributes of the scheme forced total
// unconditionally (the closure of the empty set — everything reachable from
// nulls-not-allowed constraints).
func TotalAttrs(scheme string, nes []schema.NullExistence) []string {
	return CloseExistence(scheme, nes, nil)
}

// EqClasses is a union-find over qualified attribute names, built from
// total-equality constraints; two attributes are in the same class iff their
// equality is derivable by reflexivity, symmetry, and transitivity. Names are
// interned to dense ids at build time, so the structure is a flat int slice
// with path-halving finds, and queries after construction do not mutate the
// maps (an attribute never mentioned by a constraint is its own class).
type EqClasses struct {
	ids    map[string]int32
	parent []int32
}

// NewEqClasses builds the equivalence classes for one scheme's total-equality
// constraints (pairing attributes position-wise).
func NewEqClasses(scheme string, tes []schema.TotalEquality) *EqClasses {
	eq := &EqClasses{ids: make(map[string]int32)}
	for _, te := range tes {
		if te.Scheme != scheme {
			continue
		}
		for i := range te.Y {
			if i < len(te.Z) {
				eq.union(eq.id(te.Y[i]), eq.id(te.Z[i]))
			}
		}
	}
	return eq
}

func (eq *EqClasses) id(a string) int32 {
	if id, ok := eq.ids[a]; ok {
		return id
	}
	id := int32(len(eq.parent))
	eq.ids[a] = id
	eq.parent = append(eq.parent, id)
	return id
}

func (eq *EqClasses) find(x int32) int32 {
	for eq.parent[x] != x {
		eq.parent[x] = eq.parent[eq.parent[x]] // path halving
		x = eq.parent[x]
	}
	return x
}

func (eq *EqClasses) union(a, b int32) {
	ra, rb := eq.find(a), eq.find(b)
	if ra == rb {
		return
	}
	// Deterministic root choice: the smaller id (the earlier-interned name).
	if ra > rb {
		ra, rb = rb, ra
	}
	eq.parent[rb] = ra
}

// Same reports whether the attributes are provably equal.
func (eq *EqClasses) Same(a, b string) bool {
	if a == b {
		return true
	}
	ia, oka := eq.ids[a]
	ib, okb := eq.ids[b]
	if !oka || !okb {
		return false // an unmentioned attribute equals only itself
	}
	return eq.find(ia) == eq.find(ib)
}

// ImpliesTotalEquality reports whether the total-equality constraints imply
// te (each positional pair must be in the same class).
func ImpliesTotalEquality(tes []schema.TotalEquality, te schema.TotalEquality) bool {
	if len(te.Y) != len(te.Z) {
		return false
	}
	eq := NewEqClasses(te.Scheme, tes)
	for i := range te.Y {
		if !eq.Same(te.Y[i], te.Z[i]) {
			return false
		}
	}
	return true
}

// SubsumesPartNull reports whether part-null constraint strong implies weak:
// same scheme, and every set of weak contains some set of strong (a tuple
// with a total strong-set subtuple has a total subtuple inside the weak set
// that contains it).
func SubsumesPartNull(strong, weak schema.PartNull) bool {
	if strong.Scheme != weak.Scheme {
		return false
	}
	for _, ws := range weak.Sets {
		found := false
		for _, ss := range strong.Sets {
			if schema.SubsetOf(ss, ws) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Trivial reports whether the constraint is satisfied by every relation:
// a null-existence constraint with Z ⊆ Y; a null-synchronization set over at
// most one attribute; a part-null constraint with an empty member set (the
// empty subtuple is vacuously total); a total-equality constraint pairing
// each attribute with itself.
func Trivial(nc schema.NullConstraint) bool {
	switch c := nc.(type) {
	case schema.NullExistence:
		return schema.SubsetOf(c.Z, c.Y)
	case schema.NullSync:
		return len(schema.NormalizeAttrs(c.Y)) <= 1
	case schema.PartNull:
		if len(c.Sets) == 0 {
			return true
		}
		for _, set := range c.Sets {
			if len(set) == 0 {
				return true
			}
		}
		return false
	case schema.TotalEquality:
		for i := range c.Y {
			if i >= len(c.Z) || c.Y[i] != c.Z[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Simplify removes trivial constraints, duplicates, and constraints implied
// by the rest of the set, returning a deterministic minimal-ish cover. The
// input order is preserved for surviving constraints.
func Simplify(nulls []schema.NullConstraint) []schema.NullConstraint {
	// Pass 1: drop trivial and exact duplicates.
	var pruned []schema.NullConstraint
	seen := make(map[string]bool)
	for _, nc := range nulls {
		if Trivial(nc) || seen[nc.Key()] {
			continue
		}
		seen[nc.Key()] = true
		pruned = append(pruned, nc)
	}
	// Pass 2: drop constraints implied by the remaining set.
	var out []schema.NullConstraint
	for i, nc := range pruned {
		rest := make([]schema.NullConstraint, 0, len(pruned)-1)
		rest = append(rest, out...)
		rest = append(rest, pruned[i+1:]...)
		if !Implied(rest, nc) {
			out = append(out, nc)
		}
	}
	return out
}

// Implied reports whether the constraint set implies nc, family-by-family.
// Null-synchronization sets are handled through their null-existence
// expansion on both sides.
func Implied(nulls []schema.NullConstraint, nc schema.NullConstraint) bool {
	nes, pns, tes := Classify(nulls)
	switch c := nc.(type) {
	case schema.NullExistence:
		return ImpliesExistence(nes, c)
	case schema.NullSync:
		for _, ne := range c.Expand() {
			if !ImpliesExistence(nes, ne) {
				return false
			}
		}
		return true
	case schema.PartNull:
		for _, pn := range pns {
			if SubsumesPartNull(pn, c) {
				return true
			}
		}
		return false
	case schema.TotalEquality:
		return ImpliesTotalEquality(tes, c)
	default:
		return false
	}
}

// OnlyNNA reports whether every constraint in the set is a nulls-not-allowed
// constraint — the declaratively-maintainable case of Proposition 5.2.
func OnlyNNA(nulls []schema.NullConstraint) bool {
	for _, nc := range nulls {
		ne, ok := nc.(schema.NullExistence)
		if !ok || !ne.IsNNA() {
			return false
		}
	}
	return true
}
