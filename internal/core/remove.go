package core

import (
	"fmt"

	"repro/internal/nullcon"
	"repro/internal/obs"
	"repro/internal/schema"
)

// IsRemovable checks the removability conditions of Definition 4.2 for the
// key copy of the named member (the attribute set Yj = Ki, which is the only
// kind of attribute set the merged scheme's total-equality constraints
// involve). It returns nil when removable, or an error naming the first
// failing condition.
//
// Conditions (numbering follows the paper):
//
//	(1) at least one attribute of the member remains after removal;
//	(2) Yj does not appear in the right-hand side of any inclusion
//	    dependency from another scheme;
//	(3) if Yj is a foreign key Rm[Yj] ⊆ Rj[Kj], the schema must also contain
//	    Rm[Km] ⊆ Rj[Kj], so the rewritten dependency is already implied
//	    (the paper states this over every total-equality subset W; Km is the
//	    weakest sound requirement and the one its own §5.2 examples need —
//	    see DESIGN.md);
//	(4) Yj does not overlap any other foreign key of Rm.
func (m *MergedScheme) IsRemovable(memberName string) error {
	mb := m.Member(memberName)
	if mb == nil {
		return notRemovable(memberName, nil, PreconditionMember, "core: %s is not a member of the merge set", memberName)
	}
	if mb.Name == m.KeyRelation {
		return notRemovable(memberName, mb.Key, PreconditionMember, "core: %s is the key-relation; its key is Km and is never removable", memberName)
	}
	if m.removed(mb.Name) {
		return notRemovable(memberName, mb.Key, PreconditionMember, "core: key copy of %s already removed", memberName)
	}
	yj := mb.Key

	// The defining total-equality constraint Km =⊥ Yj must be present.
	teFound := false
	for _, nc := range m.Schema.NullsOf(m.Name) {
		if te, ok := nc.(schema.TotalEquality); ok {
			if (schema.EqualAttrSets(te.Y, m.Km) && schema.EqualAttrSets(te.Z, yj)) ||
				(schema.EqualAttrSets(te.Z, m.Km) && schema.EqualAttrSets(te.Y, yj)) {
				teFound = true
				break
			}
		}
	}
	if !teFound {
		return notRemovable(memberName, yj, PreconditionTotalEquality, "core: no total-equality constraint Km =⊥ %v", yj)
	}

	// (1)
	if len(schema.DiffAttrs(mb.Attrs, yj)) < 1 {
		return notRemovable(memberName, yj, Condition1, "core: condition (1) fails: removing %v would leave no attribute of %s", yj, mb.Name)
	}
	// (2)
	for _, ind := range m.Schema.INDs {
		if ind.Right == m.Name && ind.Left != m.Name && schema.OverlapAttrs(ind.RightAttrs, yj) {
			return notRemovable(memberName, yj, Condition2, "core: condition (2) fails: %s targets %v", ind, yj)
		}
	}
	// (3) and (4)
	for _, ind := range m.Schema.INDs {
		if ind.Left != m.Name || ind.Right == m.Name {
			continue
		}
		if schema.EqualAttrSets(ind.LeftAttrs, yj) {
			// (3): Rm[Km] ⊆ Rj[Kj] must exist with matching target.
			found := false
			for _, other := range m.Schema.INDs {
				if other.Left == m.Name && other.Right == ind.Right &&
					schema.EqualAttrSets(other.LeftAttrs, m.Km) &&
					schema.EqualAttrLists(other.RightAttrs, ind.RightAttrs) {
					found = true
					break
				}
			}
			if !found {
				return notRemovable(memberName, yj, Condition3, "core: condition (3) fails: %s has no Km counterpart", ind)
			}
		} else if schema.OverlapAttrs(ind.LeftAttrs, yj) {
			return notRemovable(memberName, yj, Condition4, "core: condition (4) fails: %v overlaps foreign key %v", yj, ind.LeftAttrs)
		}
	}
	return nil
}

// RemovableMembers lists the members whose key copies are currently
// removable, in merge order.
func (m *MergedScheme) RemovableMembers() []string {
	var out []string
	for _, mb := range m.Members {
		if m.IsRemovable(mb.Name) == nil {
			out = append(out, mb.Name)
		}
	}
	return out
}

// Remove applies Definition 4.3 for the key copy of the named member,
// mutating the held schema:
//
//  1. the attributes Yj are dropped from Xm;
//  2. in F, every occurrence of an attribute of Yj is replaced by the
//     corresponding attribute of Km;
//  3. inclusion dependencies Rm[Yj] ⊆ Rj[Kj] are rewritten to
//     Rm[Km] ⊆ Rj[Kj] (deduplicated — condition (3) guarantees the rewritten
//     dependency already exists);
//  4. the attributes of Yj are removed from part-null and null-existence
//     constraints (including null-synchronization sets), the total-equality
//     constraint Km =⊥ Yj is dropped, and the surviving constraint set is
//     simplified (trivial and implied constraints removed).
func (m *MergedScheme) Remove(memberName string, opts ...Option) error {
	cfg := newConfig(opts)
	ctx, sp := obs.Span(cfg.ctx, "core.Remove")
	defer sp.End()
	sp.SetAttr("member", memberName)
	if err := m.IsRemovable(memberName); err != nil {
		return err
	}
	mb := m.Member(memberName)
	yj := mb.Key
	yjSet := make(map[string]bool, len(yj))
	for _, a := range yj {
		yjSet[a] = true
	}
	s := m.Schema
	rm := s.Scheme(m.Name)

	// 1. Shrink Xm.
	_, step1 := obs.Span(ctx, "remove.step1.attrs")
	var kept []schema.Attribute
	for _, a := range rm.Attrs {
		if !yjSet[a.Name] {
			kept = append(kept, a)
		}
	}
	rm.Attrs = kept
	// Candidate keys naming Yj attributes are re-expressed via Km.
	for i, ck := range rm.CandidateKeys {
		rm.CandidateKeys[i] = schema.NormalizeAttrs(m.substituteKm(mb, ck))
	}
	step1.End()

	// 2. Rewrite F (dependencies of Rm only).
	_, step2 := obs.Span(ctx, "remove.step2.fds")
	for i, fdep := range s.FDs {
		if fdep.Scheme != m.Name {
			continue
		}
		s.FDs[i].LHS = dedupe(m.substituteKm(mb, fdep.LHS))
		s.FDs[i].RHS = dedupe(m.substituteKm(mb, fdep.RHS))
	}
	step2.End()

	// 3. Rewrite I.
	_, step3 := obs.Span(ctx, "remove.step3.inclusion_dependencies")
	var inds []schema.IND
	seen := make(map[string]bool)
	for _, ind := range s.INDs {
		nd := ind
		if nd.Left == m.Name && schema.EqualAttrSets(nd.LeftAttrs, yj) {
			nd.LeftAttrs = m.substituteKm(mb, nd.LeftAttrs)
		} else if nd.Left == m.Name && schema.OverlapAttrs(nd.LeftAttrs, yj) {
			// Internal non-key left sides may mention Yj; substitute.
			nd.LeftAttrs = dedupe(m.substituteKm(mb, nd.LeftAttrs))
		}
		if nd.Left == nd.Right && schema.EqualAttrLists(nd.LeftAttrs, nd.RightAttrs) {
			continue // became trivial
		}
		if !seen[nd.Key()] {
			seen[nd.Key()] = true
			inds = append(inds, nd)
		}
	}
	s.INDs = inds
	step3.End()

	// 4. Rewrite N.
	_, step4 := obs.Span(ctx, "remove.step4.null_constraints")
	var nulls []schema.NullConstraint
	for _, nc := range s.Nulls {
		if nc.SchemeName() != m.Name {
			nulls = append(nulls, nc)
			continue
		}
		switch c := nc.(type) {
		case schema.TotalEquality:
			if (schema.EqualAttrSets(c.Y, m.Km) && schema.EqualAttrSets(c.Z, yj)) ||
				(schema.EqualAttrSets(c.Z, m.Km) && schema.EqualAttrSets(c.Y, yj)) {
				continue // 4(b): drop Km =⊥ Yj
			}
			nulls = append(nulls, c)
		case schema.NullExistence:
			c.Y = schema.DiffAttrs(c.Y, yj)
			c.Z = schema.DiffAttrs(c.Z, yj)
			nulls = append(nulls, c)
		case schema.NullSync:
			c.Y = schema.DiffAttrs(c.Y, yj)
			nulls = append(nulls, c)
		case schema.PartNull:
			sets := make([][]string, len(c.Sets))
			for i, set := range c.Sets {
				sets[i] = schema.DiffAttrs(set, yj)
			}
			c.Sets = sets
			nulls = append(nulls, c)
		default:
			nulls = append(nulls, c)
		}
	}
	s.Nulls = nullcon.Simplify(nulls)
	step4.End()

	m.removals = append(m.removals, *mb)
	m.compileMapping()
	before := len(m.trace)
	m.traceRemove(mb)
	for _, line := range m.trace[before:] {
		cfg.observe(line)
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("core: Remove produced an invalid schema: %w", err)
	}
	return nil
}

// RemoveAll removes every removable key copy, iterating to a fixpoint
// (removing one member's copy can enable another's, because total-equality
// constraints and foreign-key counterparts change). It returns the names of
// the members whose copies were removed, in order.
func (m *MergedScheme) RemoveAll(opts ...Option) []string {
	cfg := newConfig(opts)
	_, sp := obs.Span(cfg.ctx, "core.RemoveAll")
	defer sp.End()
	var removed []string
	for {
		progress := false
		for _, mb := range m.Members {
			if m.removed(mb.Name) {
				continue
			}
			if m.IsRemovable(mb.Name) == nil {
				if err := m.Remove(mb.Name, opts...); err == nil {
					removed = append(removed, mb.Name)
					progress = true
				}
			}
		}
		if !progress {
			sp.SetAttr("removed", fmt.Sprint(len(removed)))
			return removed
		}
	}
}

// substituteKm replaces attributes of the member's key with the
// corresponding Km attributes, leaving others untouched.
func (m *MergedScheme) substituteKm(mb *Member, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = m.kmFor(mb, a)
	}
	return out
}

func dedupe(attrs []string) []string {
	seen := make(map[string]bool, len(attrs))
	var out []string
	for _, a := range attrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
