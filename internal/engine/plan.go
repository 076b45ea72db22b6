package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/relation"
	"repro/internal/schema"
)

// This file compiles a schema into each table's write plan. newBinding runs
// it once per design; from then on every per-operation path — validation,
// index maintenance, fetch hops, restrict probes — works on tuple positions
// and index slots and never looks an attribute up by name.

// pkSlot stands for "the primary-key index" where a secondary-index slot is
// expected: an inclusion dependency whose left attribute list is the
// referencing table's own primary key needs no secondary index, because the
// pk index answers "does a tuple with this value exist" by itself.
const pkSlot = -1

// indPlan is one inclusion dependency Left[LeftAttrs] ⊆ Right[RightAttrs],
// resolved to positions and index slots on both sides.
type indPlan struct {
	ind         schema.IND
	text        string // ind.String(), the Constraint of a violation
	keyBased    bool
	left, right *table
	// probePos lists the LeftAttrs positions of a left tuple in the order the
	// referenced side's index is keyed: the referenced table's primary-key
	// order when key-based (RightAttrs is a validated permutation of that
	// key), LeftAttrs order otherwise. Encoding a left tuple at probePos
	// yields the probe key directly.
	probePos []int
	// rightPos lists the RightAttrs positions of a right tuple, in RightAttrs
	// order — so its encoding is keyed like the left side's LeftAttrs index.
	rightPos []int
	// leftSlot is left's index over LeftAttrs (pkSlot if that is its primary
	// key); rightSlot is right's secondary index over RightAttrs, meaningful
	// only when the dependency is not key-based.
	leftSlot, rightSlot int
	// edge is the co-access counter of Left->Right (coaccess.go).
	edge *coEdge
}

// nullKind discriminates the paper's §3 null constraints.
type nullKind uint8

const (
	nullExistence nullKind = iota + 1 // Y ⊑ Z
	nullSync                          // NS(Y)
	partNull                          // PN(Y1, …, Ym)
	totalEquality                     // Y =⊥ Z
)

// nullCheck is one procedural null constraint compiled to positions. It
// decides exactly what the constraint's Satisfied method decides on the
// one-row relation holding the tuple (the retained reference; plan_test.go
// compares the two).
type nullCheck struct {
	kind nullKind
	y, z []int   // existence: Y, Z; sync: Y; total equality: Y, Z pairwise (equal length, schema-validated)
	sets [][]int // part-null
	text string  // fmt.Sprint(constraint), the Constraint of a violation
}

// ok reports whether tup satisfies the constraint.
func (c *nullCheck) ok(tup relation.Tuple) bool {
	switch c.kind {
	case nullExistence:
		return !tup.TotalAt(c.y) || tup.TotalAt(c.z)
	case nullSync:
		nulls := 0
		for _, p := range c.y {
			if tup[p].IsNull() {
				nulls++
			}
		}
		return nulls == 0 || nulls == len(c.y)
	case partNull:
		for _, set := range c.sets {
			if tup.TotalAt(set) {
				return true
			}
		}
		return false
	default: // totalEquality
		if !tup.TotalAt(c.y) || !tup.TotalAt(c.z) {
			return true
		}
		for i, p := range c.y {
			if !tup[p].Equal(tup[c.z[i]]) {
				return false
			}
		}
		return true
	}
}

// compileNull resolves a null constraint's attribute lists against hdr.
func compileNull(nc schema.NullConstraint, hdr *relation.Relation) (nullCheck, error) {
	c := nullCheck{text: fmt.Sprint(nc)}
	switch nc := nc.(type) {
	case schema.NullExistence:
		c.kind, c.y, c.z = nullExistence, hdr.Positions(nc.Y), hdr.Positions(nc.Z)
	case schema.NullSync:
		c.kind, c.y = nullSync, hdr.Positions(nc.Y)
	case schema.PartNull:
		c.kind = partNull
		for _, set := range nc.Sets {
			c.sets = append(c.sets, hdr.Positions(set))
		}
	case schema.TotalEquality:
		c.kind, c.y, c.z = totalEquality, hdr.Positions(nc.Y), hdr.Positions(nc.Z)
	default:
		return c, fmt.Errorf("engine: no evaluator for null constraint %s (%T)", nc, nc)
	}
	return c, nil
}

// compilePlans fills in every table's write plan from the binding's schema.
// Tables exist already (catalog, headers, pk positions, ordinals).
func (b *binding) compilePlans() error {
	s := b.schema
	for _, rs := range s.Relations {
		t := b.tables[rs.Name]
		nna := s.NNAAttrs(rs.Name)
		for i, a := range t.hdr.Attrs() {
			if nna[a] {
				t.nna = append(t.nna, i)
			}
		}
	}
	for _, nc := range s.Nulls {
		if ne, ok := nc.(schema.NullExistence); ok && ne.IsNNA() {
			continue // declarative: t.nna
		}
		t := b.tables[nc.SchemeName()]
		c, err := compileNull(nc, t.hdr)
		if err != nil {
			return err
		}
		t.nulls = append(t.nulls, c)
	}
	// The secondary-index set is fixed here: one index per referencing side
	// (delete/update restrict checks) unless the pk index already is that
	// index, plus the referenced side of every non-key-based dependency
	// (insert probes, fetch hops). No read-shaped operation ever builds one.
	type slotKey struct {
		t     *table
		attrs string
	}
	slots := make(map[slotKey]int)
	slotOf := func(t *table, attrs []string) int {
		if slices.Equal(attrs, t.rs.PrimaryKey) {
			return pkSlot
		}
		k := slotKey{t, strings.Join(attrs, ",")}
		slot, ok := slots[k]
		if !ok {
			slot = len(t.sec)
			slots[k] = slot
			t.sec = append(t.sec, t.hdr.Positions(attrs))
		}
		return slot
	}
	for _, ind := range s.INDs {
		if err := b.validateINDShape(ind); err != nil {
			return err
		}
		left, right := b.tables[ind.Left], b.tables[ind.Right]
		ip := &indPlan{
			ind:      ind,
			text:     ind.String(),
			keyBased: ind.KeyBased(s),
			left:     left,
			right:    right,
			probePos: left.hdr.Positions(ind.LeftAttrs),
			rightPos: right.hdr.Positions(ind.RightAttrs),
			leftSlot: slotOf(left, ind.LeftAttrs),
		}
		if ip.keyBased {
			inKeyOrder := make([]int, len(ip.probePos))
			for i, ka := range right.rs.PrimaryKey {
				for j, ra := range ind.RightAttrs {
					if ra == ka {
						inKeyOrder[i] = ip.probePos[j]
					}
				}
			}
			ip.probePos = inKeyOrder
		} else {
			ip.rightSlot = slotOf(right, ind.RightAttrs)
		}
		left.out = append(left.out, ip)
		right.in = append(right.in, ip)
	}
	return nil
}

// validateINDShape rejects key-based inclusion dependencies whose right-side
// attribute list is not an exact permutation of the referenced scheme's
// primary key. Schema validation alone admits such shapes — IND.KeyBased
// compares attribute SETS, so a right side like [K1, K1, K2] passes against
// the key [K1, K2] — but putting the probe positions into key order
// (compilePlans) would then silently drop one correspondence and probe the
// primary-key index with a garbage key, rejecting valid foreign keys.
// Detecting the shape here turns that silent misbehaviour into a typed Open
// error.
func (b *binding) validateINDShape(ind schema.IND) error {
	if !ind.KeyBased(b.schema) {
		return nil
	}
	target := b.tables[ind.Right]
	if target == nil {
		return fmt.Errorf("%w %s (in %s)", ErrUnknownRelation, ind.Right, ind)
	}
	pk := target.rs.PrimaryKey
	if len(ind.RightAttrs) != len(pk) {
		return fmt.Errorf("%w: %s lists %d right-side attributes for the %d-attribute key of %s",
			ErrMalformedIND, ind, len(ind.RightAttrs), len(pk), ind.Right)
	}
	seen := make(map[string]int, len(ind.RightAttrs))
	for _, a := range ind.RightAttrs {
		seen[a]++
	}
	for _, ka := range pk {
		if seen[ka] != 1 {
			return fmt.Errorf("%w: %s must list key attribute %s of %s exactly once (found %d times)",
				ErrMalformedIND, ind, ka, ind.Right, seen[ka])
		}
	}
	return nil
}

// planOf resolves an inclusion dependency handed in by value (the shard
// router's probe hooks speak schema.IND) to its plan, or nil.
func (b *binding) planOf(ind schema.IND) *indPlan {
	t := b.tables[ind.Left]
	if t == nil {
		return nil
	}
	for _, ip := range t.out {
		if ip.ind.Right == ind.Right && slices.Equal(ip.ind.LeftAttrs, ind.LeftAttrs) && slices.Equal(ip.ind.RightAttrs, ind.RightAttrs) {
			return ip
		}
	}
	return nil
}
