package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is a relational schema RS = (R, F ∪ I ∪ N): relation-schemes, FDs
// (typically key dependencies), inclusion dependencies, and null constraints.
// Slices are ordered for deterministic rendering; set-based comparison
// helpers are provided for figure reproduction tests.
type Schema struct {
	Relations []*RelationScheme
	FDs       []FD
	INDs      []IND
	Nulls     []NullConstraint
}

// New returns an empty schema.
func New() *Schema { return &Schema{} }

// AddScheme appends a relation-scheme and its implied key dependency and,
// unless allowNullKeys, leaves null policy to the caller (the paper's
// baseline schemas attach explicit NNA constraints).
func (s *Schema) AddScheme(rs *RelationScheme) *Schema {
	s.Relations = append(s.Relations, rs)
	s.FDs = append(s.FDs, KeyDependency(rs))
	return s
}

// Scheme returns the named relation-scheme, or nil.
func (s *Schema) Scheme(name string) *RelationScheme {
	for _, rs := range s.Relations {
		if rs.Name == name {
			return rs
		}
	}
	return nil
}

// SchemeNames returns the relation-scheme names in declaration order.
func (s *Schema) SchemeNames() []string {
	names := make([]string, len(s.Relations))
	for i, rs := range s.Relations {
		names[i] = rs.Name
	}
	return names
}

// LoadOrder returns the relation-scheme names ordered so that every inclusion
// dependency's right scheme precedes its left scheme: the order in which a
// state can be loaded, or generated, without a dangling reference.
// Self-referential dependencies are ignored, ties keep declaration order, and
// a cycle is an error.
func (s *Schema) LoadOrder() ([]string, error) {
	deg := make(map[string]int, len(s.Relations))
	succ := make(map[string][]string)
	for _, ind := range s.INDs {
		if ind.Left == ind.Right {
			continue
		}
		succ[ind.Right] = append(succ[ind.Right], ind.Left)
		deg[ind.Left]++
	}
	var queue []string
	for _, rs := range s.Relations {
		if deg[rs.Name] == 0 {
			queue = append(queue, rs.Name)
		}
	}
	var order []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range succ[n] {
			if deg[m]--; deg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) != len(s.Relations) {
		return nil, fmt.Errorf("schema: inclusion dependencies form a cycle; no load order exists")
	}
	return order, nil
}

// SchemeOf returns the relation-scheme owning the named (globally unique)
// attribute, or nil.
func (s *Schema) SchemeOf(attr string) *RelationScheme {
	for _, rs := range s.Relations {
		if rs.HasAttr(attr) {
			return rs
		}
	}
	return nil
}

// FDsOf returns the FDs attached to the named scheme.
func (s *Schema) FDsOf(name string) []FD {
	var out []FD
	for _, fd := range s.FDs {
		if fd.Scheme == name {
			out = append(out, fd)
		}
	}
	return out
}

// INDsFrom returns the inclusion dependencies whose left side is the scheme.
func (s *Schema) INDsFrom(name string) []IND {
	var out []IND
	for _, ind := range s.INDs {
		if ind.Left == name {
			out = append(out, ind)
		}
	}
	return out
}

// INDsInto returns the inclusion dependencies whose right side is the scheme.
func (s *Schema) INDsInto(name string) []IND {
	var out []IND
	for _, ind := range s.INDs {
		if ind.Right == name {
			out = append(out, ind)
		}
	}
	return out
}

// NullsOf returns the null constraints attached to the scheme.
func (s *Schema) NullsOf(name string) []NullConstraint {
	var out []NullConstraint
	for _, nc := range s.Nulls {
		if nc.SchemeName() == name {
			out = append(out, nc)
		}
	}
	return out
}

// NNAAttrs returns the set of attributes of the scheme covered by
// nulls-not-allowed constraints.
func (s *Schema) NNAAttrs(name string) map[string]bool {
	out := make(map[string]bool)
	for _, nc := range s.Nulls {
		if ne, ok := nc.(NullExistence); ok && ne.Scheme == name && ne.IsNNA() {
			for _, a := range ne.Z {
				out[a] = true
			}
		}
	}
	return out
}

// AllowsNull reports whether the attribute may carry nulls, i.e. it is not
// covered by any NNA constraint of its scheme.
func (s *Schema) AllowsNull(scheme, attr string) bool {
	return !s.NNAAttrs(scheme)[attr]
}

// Validate checks structural well-formedness: valid schemes, globally unique
// attribute names, dependencies and constraints referring to existing schemes
// and attributes, and position-wise compatible IND correspondences.
func (s *Schema) Validate() error {
	names := make(map[string]bool, len(s.Relations))
	attrOwner := make(map[string]string)
	for _, rs := range s.Relations {
		if err := rs.Validate(); err != nil {
			return err
		}
		if names[rs.Name] {
			return fmt.Errorf("duplicate relation-scheme %s", rs.Name)
		}
		names[rs.Name] = true
		for _, a := range rs.Attrs {
			if owner, dup := attrOwner[a.Name]; dup {
				return fmt.Errorf("attribute %s appears in both %s and %s (names must be globally unique)", a.Name, owner, rs.Name)
			}
			attrOwner[a.Name] = rs.Name
		}
	}
	for _, fd := range s.FDs {
		rs := s.Scheme(fd.Scheme)
		if rs == nil {
			return fmt.Errorf("FD %s: unknown scheme", fd)
		}
		if !SubsetOf(fd.LHS, rs.AttrNames()) || !SubsetOf(fd.RHS, rs.AttrNames()) {
			return fmt.Errorf("FD %s: attributes outside scheme", fd)
		}
	}
	for _, ind := range s.INDs {
		if err := s.validateIND(ind); err != nil {
			return err
		}
	}
	for _, nc := range s.Nulls {
		rs := s.Scheme(nc.SchemeName())
		if rs == nil {
			return fmt.Errorf("null constraint %s: unknown scheme", nc)
		}
		if !SubsetOf(nc.MentionedAttrs(), rs.AttrNames()) {
			return fmt.Errorf("null constraint %s: attributes outside scheme", nc)
		}
		if te, ok := nc.(TotalEquality); ok && len(te.Y) != len(te.Z) {
			return fmt.Errorf("total-equality constraint %s: side arity mismatch", nc)
		}
	}
	return nil
}

func (s *Schema) validateIND(ind IND) error {
	left, right := s.Scheme(ind.Left), s.Scheme(ind.Right)
	if left == nil || right == nil {
		return fmt.Errorf("IND %s: unknown scheme", ind)
	}
	if len(ind.LeftAttrs) == 0 || len(ind.LeftAttrs) != len(ind.RightAttrs) {
		return fmt.Errorf("IND %s: side arity mismatch", ind)
	}
	for i := range ind.LeftAttrs {
		ld, rd := left.Domain(ind.LeftAttrs[i]), right.Domain(ind.RightAttrs[i])
		if ld == "" {
			return fmt.Errorf("IND %s: attribute %s not in %s", ind, ind.LeftAttrs[i], ind.Left)
		}
		if rd == "" {
			return fmt.Errorf("IND %s: attribute %s not in %s", ind, ind.RightAttrs[i], ind.Right)
		}
		if ld != rd {
			return fmt.Errorf("IND %s: incompatible attribute pair %s/%s (%s vs %s)", ind, ind.LeftAttrs[i], ind.RightAttrs[i], ld, rd)
		}
	}
	return nil
}

// Clone returns a deep copy of the schema. Null constraints are value types
// and are shared safely.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		FDs:   append([]FD(nil), s.FDs...),
		INDs:  append([]IND(nil), s.INDs...),
		Nulls: append([]NullConstraint(nil), s.Nulls...),
	}
	for _, rs := range s.Relations {
		c.Relations = append(c.Relations, rs.Clone())
	}
	return c
}

// RemoveScheme deletes the named scheme together with every FD and null
// constraint attached to it. INDs are left to the caller, which decides how
// to rewrite them (Merge step 4).
func (s *Schema) RemoveScheme(name string) {
	out := s.Relations[:0]
	for _, rs := range s.Relations {
		if rs.Name != name {
			out = append(out, rs)
		}
	}
	s.Relations = out
	fds := s.FDs[:0]
	for _, fd := range s.FDs {
		if fd.Scheme != name {
			fds = append(fds, fd)
		}
	}
	s.FDs = fds
	ncs := s.Nulls[:0]
	for _, nc := range s.Nulls {
		if nc.SchemeName() != name {
			ncs = append(ncs, nc)
		}
	}
	s.Nulls = ncs
}

// NullKeys returns the canonical key strings of the null constraints, sorted.
func (s *Schema) NullKeys() []string {
	keys := make([]string, len(s.Nulls))
	for i, nc := range s.Nulls {
		keys[i] = nc.Key()
	}
	sort.Strings(keys)
	return keys
}

// INDKeys returns the canonical key strings of the INDs, sorted.
func (s *Schema) INDKeys() []string {
	keys := make([]string, len(s.INDs))
	for i, ind := range s.INDs {
		keys[i] = ind.Key()
	}
	sort.Strings(keys)
	return keys
}

// SameConstraints reports whether two schemas have identical IND and
// null-constraint sets (by canonical keys) — used by figure-reproduction
// tests.
func (s *Schema) SameConstraints(t *Schema) bool {
	return EqualAttrLists(s.INDKeys(), t.INDKeys()) && EqualAttrLists(s.NullKeys(), t.NullKeys())
}

// String renders the schema in the layout of the paper's figure 3:
// relation-schemes, then inclusion dependencies, then null constraints.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString("Relation-Schemes\n")
	for _, rs := range s.Relations {
		fmt.Fprintf(&b, "  %s\n", rs)
	}
	if len(s.INDs) > 0 {
		b.WriteString("Inclusion Dependencies\n")
		for _, ind := range s.INDs {
			fmt.Fprintf(&b, "  %s\n", ind)
		}
	}
	if len(s.Nulls) > 0 {
		b.WriteString("Null Constraints\n")
		for _, nc := range s.Nulls {
			fmt.Fprintf(&b, "  %s\n", nc)
		}
	}
	return b.String()
}
