// Package schema models the relational schemas of Markowitz (ICDE 1992):
// RS = (R, F ∪ I ∪ N) where R is a set of relation-schemes, F a set of
// (key) functional dependencies, I a set of inclusion dependencies, and N a
// set of null constraints. The package supplies the five null-constraint
// kinds of section 3 (null-existence, nulls-not-allowed, null-synchronization
// sets, part-null, total-equality), satisfaction checks against in-memory
// relations, schema validation, and deterministic rendering in the paper's
// notation.
package schema

import (
	"sort"
	"strings"

	"repro/internal/relation"
)

// Attribute is a relational attribute: a globally unique qualified name (the
// paper's convention, e.g. "O.C.NR") together with a domain name. Two
// attributes are compatible iff they have the same domain (section 2).
type Attribute struct {
	Name   string
	Domain string
}

// AttrNames extracts the names from a list of attributes.
func AttrNames(attrs []Attribute) []string {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	return names
}

// NormalizeAttrs returns a sorted, deduplicated copy of an attribute-name
// set. Attribute *sets* (FD sides, null-constraint sides) are canonically
// sorted; attribute *lists* whose order is a correspondence (keys, IND sides)
// are never normalized.
func NormalizeAttrs(attrs []string) []string {
	out := append([]string(nil), attrs...)
	sort.Strings(out)
	j := 0
	for i, a := range out {
		if i == 0 || a != out[i-1] {
			out[j] = a
			j++
		}
	}
	return out[:j]
}

// EqualAttrSets reports set equality of two attribute-name lists.
func EqualAttrSets(a, b []string) bool {
	na, nb := NormalizeAttrs(a), NormalizeAttrs(b)
	if len(na) != len(nb) {
		return false
	}
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

// EqualAttrLists reports order-sensitive equality of two attribute lists.
func EqualAttrLists(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every name in a occurs in b.
func SubsetOf(a, b []string) bool {
	set := make(map[string]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

// UnionAttrs returns the set union of the lists, in first-occurrence order.
func UnionAttrs(lists ...[]string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, a := range l {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// DiffAttrs returns a − b preserving a's order.
func DiffAttrs(a, b []string) []string {
	drop := make(map[string]bool, len(b))
	for _, x := range b {
		drop[x] = true
	}
	var out []string
	for _, x := range a {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}

// IntersectAttrs returns a ∩ b preserving a's order.
func IntersectAttrs(a, b []string) []string {
	keep := make(map[string]bool, len(b))
	for _, x := range b {
		keep[x] = true
	}
	var out []string
	for _, x := range a {
		if keep[x] {
			out = append(out, x)
		}
	}
	return out
}

// ContainsAttr reports whether the list names the attribute.
func ContainsAttr(list []string, attr string) bool {
	for _, a := range list {
		if a == attr {
			return true
		}
	}
	return false
}

// OverlapAttrs reports whether the two lists share any attribute.
func OverlapAttrs(a, b []string) bool {
	return len(IntersectAttrs(a, b)) > 0
}

// JoinAttrs renders an attribute-name list as a comma-separated string in
// linear time (strings.Join builds through a single strings.Builder). It is
// the shared canonical-key/rendering helper for this package and fd.
func JoinAttrs(attrs []string) string { return strings.Join(attrs, ",") }

// totalOn reports whether the subtuple of t on the named attributes of r is
// total; attribute sets are resolved by name against r's header.
func totalOn(r *relation.Relation, t relation.Tuple, attrs []string) bool {
	for _, a := range attrs {
		if t[r.Position(a)].IsNull() {
			return false
		}
	}
	return true
}
