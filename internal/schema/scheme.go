package schema

import (
	"fmt"
	"strings"
)

// RelationScheme is a named relation-scheme Ri(Xi) with a primary key Ki.
// The attribute list is ordered (for display and positional key
// correspondence); the primary key is an ordered sublist of the attribute
// names. Candidate keys beyond the primary key may be recorded; they matter
// for Prop. 5.1(ii), which requires merge-set members to have a *unique*
// (primary) key for the merged key to remain non-null.
type RelationScheme struct {
	Name          string
	Attrs         []Attribute
	PrimaryKey    []string
	CandidateKeys [][]string // additional keys, excluding the primary key
}

// NewScheme builds a relation-scheme. Attributes are (name, domain) pairs
// taken from attrs; key names the primary key in order.
func NewScheme(name string, attrs []Attribute, key []string) *RelationScheme {
	return &RelationScheme{Name: name, Attrs: attrs, PrimaryKey: key}
}

// AttrNames returns the ordered attribute names of the scheme.
func (rs *RelationScheme) AttrNames() []string { return AttrNames(rs.Attrs) }

// HasAttr reports whether the scheme names the attribute.
func (rs *RelationScheme) HasAttr(name string) bool {
	return rs.attr(name) != nil
}

// Domain returns the domain of the named attribute, or "" if absent.
func (rs *RelationScheme) Domain(name string) string {
	if a := rs.attr(name); a != nil {
		return a.Domain
	}
	return ""
}

func (rs *RelationScheme) attr(name string) *Attribute {
	for i := range rs.Attrs {
		if rs.Attrs[i].Name == name {
			return &rs.Attrs[i]
		}
	}
	return nil
}

// KeyDomains returns the domains of the primary-key attributes, in key order.
func (rs *RelationScheme) KeyDomains() []string {
	ds := make([]string, len(rs.PrimaryKey))
	for i, k := range rs.PrimaryKey {
		ds[i] = rs.Domain(k)
	}
	return ds
}

// KeyCompatible reports whether the primary keys of rs and other are
// compatible: same arity and position-wise equal domains. The positional
// correspondence is the one Merge uses for renaming and total-equality
// constraints, following the paper's "one-to-one correspondence of
// compatible attributes".
func (rs *RelationScheme) KeyCompatible(other *RelationScheme) bool {
	a, b := rs.KeyDomains(), other.KeyDomains()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == "" || a[i] != b[i] {
			return false
		}
	}
	return true
}

// Validate checks internal consistency of the scheme.
func (rs *RelationScheme) Validate() error {
	if rs.Name == "" {
		return fmt.Errorf("scheme with empty name")
	}
	if len(rs.Attrs) == 0 {
		return fmt.Errorf("scheme %s: no attributes", rs.Name)
	}
	seen := make(map[string]bool, len(rs.Attrs))
	for _, a := range rs.Attrs {
		if a.Name == "" {
			return fmt.Errorf("scheme %s: attribute with empty name", rs.Name)
		}
		if a.Domain == "" {
			return fmt.Errorf("scheme %s: attribute %s has no domain", rs.Name, a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("scheme %s: duplicate attribute %s", rs.Name, a.Name)
		}
		seen[a.Name] = true
	}
	if len(rs.PrimaryKey) == 0 {
		return fmt.Errorf("scheme %s: no primary key", rs.Name)
	}
	if err := rs.validateKey(rs.PrimaryKey); err != nil {
		return err
	}
	for _, ck := range rs.CandidateKeys {
		if err := rs.validateKey(ck); err != nil {
			return err
		}
		if EqualAttrSets(ck, rs.PrimaryKey) {
			return fmt.Errorf("scheme %s: candidate key duplicates the primary key", rs.Name)
		}
	}
	return nil
}

func (rs *RelationScheme) validateKey(key []string) error {
	seen := make(map[string]bool, len(key))
	for _, k := range key {
		if !rs.HasAttr(k) {
			return fmt.Errorf("scheme %s: key attribute %s not in scheme", rs.Name, k)
		}
		if seen[k] {
			return fmt.Errorf("scheme %s: duplicate key attribute %s", rs.Name, k)
		}
		seen[k] = true
	}
	return nil
}

// Clone returns a deep copy of the scheme.
func (rs *RelationScheme) Clone() *RelationScheme {
	c := &RelationScheme{
		Name:       rs.Name,
		Attrs:      append([]Attribute(nil), rs.Attrs...),
		PrimaryKey: append([]string(nil), rs.PrimaryKey...),
	}
	for _, ck := range rs.CandidateKeys {
		c.CandidateKeys = append(c.CandidateKeys, append([]string(nil), ck...))
	}
	return c
}

// String renders the scheme in the paper's style, with key attributes
// underlined approximated by a trailing marker: NAME(K1*, K2*, A, B).
func (rs *RelationScheme) String() string {
	var b strings.Builder
	b.WriteString(rs.Name)
	b.WriteString("(")
	isKey := make(map[string]bool, len(rs.PrimaryKey))
	for _, k := range rs.PrimaryKey {
		isKey[k] = true
	}
	for i, a := range rs.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		if isKey[a.Name] {
			b.WriteString("*")
		}
	}
	b.WriteString(")")
	return b.String()
}
