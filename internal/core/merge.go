// Package core implements the relation merging technique of Markowitz
// (ICDE 1992): the Merge procedure of Definition 4.1, the attribute
// removability analysis of Definition 4.2, the Remove procedure of
// Definition 4.3, the associated state mappings η/η′ and μ/μ′, and the
// applicability conditions of Propositions 5.1 and 5.2.
//
// Merge rewrites a relational schema RS = (R, F ∪ I ∪ N) by replacing a set
// R̄ of relation-schemes with pairwise-compatible primary keys by a single
// relation-scheme Rm, generating the exact dependency and constraint rewrite
// of the paper (total-equality constraints, null-synchronization sets,
// part-null constraints, inner-relational null-existence constraints, and
// the four-step inclusion-dependency rewrite). Remove then strips attributes
// made redundant by total-equality constraints. Both procedures preserve
// information capacity (Props. 4.1 and 4.2) — verified empirically by this
// package's tests via the state mappings — and Boyce-Codd Normal Form.
package core

import (
	"fmt"

	"repro/internal/keyrel"
	"repro/internal/obs"
	"repro/internal/schema"
)

// Member records one relation-scheme of the merge set R̄: its name, its
// original attribute list Xi, and its original primary key Ki (ordered; the
// positional correspondence with Km drives renamings and total-equality
// constraints).
type Member struct {
	Name  string
	Attrs []string
	Key   []string
}

// MergedScheme is the result of Merge: the rewritten schema, the merged
// relation-scheme's identity, the merge-set metadata needed by Remove and by
// the state mappings, and the record of removals applied so far.
type MergedScheme struct {
	// Schema is the current rewritten schema (RS' after Merge, RS'' after
	// each Remove). It is mutated in place by Remove.
	Schema *schema.Schema
	// Name is the merged relation-scheme Rm.
	Name string
	// Km is the merged primary key (ordered).
	Km []string
	// KeyRelation is the member serving as key-relation Rk, or "" when a
	// synthetic key-relation was created (Rk ∉ R̄).
	KeyRelation string
	// Synthetic reports whether the key-relation was synthesized.
	Synthetic bool
	// Xk is the key-relation's attribute list (equals Km when synthetic).
	Xk []string
	// Members are the R̄ members in merge order, with their original Xi/Ki.
	Members []Member
	// FullAttrs is Xm as produced by Merge, before any Remove.
	FullAttrs []string

	// removals, in application order.
	removals []removal
	original *schema.Schema // RS, for documentation and mapping checks
	trace    []string       // step-by-step provenance (see Trace)
}

type removal struct {
	member Member   // the member whose key copy was removed
	yj     []string // the removed attributes (the member's Ki), in key order
}

// Removals returns the attribute sets removed so far, in application order.
func (m *MergedScheme) Removals() [][]string {
	out := make([][]string, len(m.removals))
	for i, r := range m.removals {
		out[i] = append([]string(nil), r.yj...)
	}
	return out
}

// Original returns the pre-merge schema RS.
func (m *MergedScheme) Original() *schema.Schema { return m.original }

// Member returns the merge-set member record by name, or nil.
func (m *MergedScheme) Member(name string) *Member {
	for i := range m.Members {
		if m.Members[i].Name == name {
			return &m.Members[i]
		}
	}
	return nil
}

// memberByKey returns the member whose original key equals yj as a set.
func (m *MergedScheme) memberByKey(yj []string) *Member {
	for i := range m.Members {
		if schema.EqualAttrSets(m.Members[i].Key, yj) {
			return &m.Members[i]
		}
	}
	return nil
}

func (m *MergedScheme) removedOf(member string) []string {
	for _, r := range m.removals {
		if r.member.Name == member {
			return r.yj
		}
	}
	return nil
}

// kmFor maps an attribute of a member's key to the corresponding Km
// attribute (positional correspondence).
func (m *MergedScheme) kmFor(member *Member, attr string) string {
	for i, k := range member.Key {
		if k == attr {
			return m.Km[i]
		}
	}
	return attr
}

// alignKm returns the Km attributes corresponding position-wise to the given
// subset of a member's key (in the given order).
func (m *MergedScheme) alignKm(member *Member, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = m.kmFor(member, a)
	}
	return out
}

// Merge applies Definition 4.1 to schema s: the relation-schemes named in
// names (the merge set R̄, in presentation order) are replaced by a new
// relation-scheme mergedName, and F, I, N are rewritten per steps 1–4.
//
// Requirements checked: at least two distinct existing schemes; pairwise
// compatible primary keys; every member attribute covered by a
// nulls-not-allowed constraint (the paper's simplifying assumption); a fresh
// merged name. The key-relation is the first member (in names order)
// satisfying Prop. 3.1; if none qualifies a synthetic key-relation
// Rk(Kk) with fresh attributes mergedName+".K<i>" is used, and a part-null
// constraint is generated per step 3(d).
//
// The input schema is not mutated; the result holds a rewritten clone.
//
// Merge is shorthand for MergeSet(s, names, WithName(mergedName)).
func Merge(s *schema.Schema, names []string, mergedName string) (*MergedScheme, error) {
	return MergeSet(s, names, WithName(mergedName))
}

// MergeSet is the canonical Definition 4.1 entry point: it merges the named
// relation-schemes under the given options. Without WithName the merged
// scheme is named after the first member with enough trailing primes to be
// fresh (the paper's R' convention). A tracer attached via WithTrace or a
// context from WithContext receives one span per definition step.
func MergeSet(s *schema.Schema, names []string, opts ...Option) (*MergedScheme, error) {
	cfg := newConfig(opts)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: input schema invalid: %w", err)
	}
	if len(names) < 2 {
		return nil, ErrMergeSetTooSmall
	}
	mergedName := cfg.name
	if mergedName == "" {
		mergedName = names[0] + "'"
		for s.Scheme(mergedName) != nil {
			mergedName += "'"
		}
	}
	ctx, sp := obs.Span(cfg.ctx, "core.Merge")
	defer sp.End()
	sp.SetAttr("merged", mergedName)
	if s.Scheme(mergedName) != nil {
		return nil, fmt.Errorf("%w: %s", ErrNameCollision, mergedName)
	}
	seen := make(map[string]bool, len(names))
	members := make([]Member, 0, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("%w %s", ErrDuplicateMember, n)
		}
		seen[n] = true
		rs := s.Scheme(n)
		if rs == nil {
			return nil, fmt.Errorf("%w %s", ErrUnknownScheme, n)
		}
		members = append(members, Member{Name: n, Attrs: rs.AttrNames(), Key: append([]string(nil), rs.PrimaryKey...)})
	}
	first := s.Scheme(names[0])
	for _, n := range names[1:] {
		if !first.KeyCompatible(s.Scheme(n)) {
			return nil, fmt.Errorf("%w: %s and %s", ErrIncompatibleKeys, names[0], n)
		}
	}
	for _, mb := range members {
		nna := s.NNAAttrs(mb.Name)
		for _, a := range mb.Attrs {
			if !nna[a] {
				return nil, fmt.Errorf("%w: attribute %s of member %s (Merge assumes nulls-not-allowed members, Def. 4.1)", ErrNullableMember, a, mb.Name)
			}
		}
	}

	// Key-relation selection (Prop. 3.1), preferring names order.
	keyRel := ""
	switch {
	case cfg.forceSynthetic:
		if cfg.keyRelation != "" {
			return nil, fmt.Errorf("core: WithSyntheticKey and WithKeyRelation are mutually exclusive")
		}
	case cfg.keyRelation != "":
		if !keyrel.IsKeyRelation(s, cfg.keyRelation, names) {
			return nil, fmt.Errorf("%w: %s for %v", ErrBadKeyRelation, cfg.keyRelation, names)
		}
		keyRel = cfg.keyRelation
	default:
		qualified := keyrel.Find(s, names)
		for _, n := range names {
			for _, q := range qualified {
				if n == q {
					keyRel = n
					break
				}
			}
			if keyRel != "" {
				break
			}
		}
	}

	m := &MergedScheme{
		Name:     mergedName,
		Members:  members,
		original: s.Clone(),
	}
	out := s.Clone()

	// Step 1: the merged relation-scheme Rm(Xm) with Km := Kk and
	// Xm := Xk ∪ ⋃ Xi (key-relation attributes first, then the remaining
	// members in names order).
	_, step1 := obs.Span(ctx, "merge.step1.scheme")
	var attrs []schema.Attribute
	if keyRel != "" {
		krs := s.Scheme(keyRel)
		m.KeyRelation = keyRel
		m.Km = append([]string(nil), krs.PrimaryKey...)
		m.Xk = krs.AttrNames()
		attrs = append(attrs, krs.Attrs...)
	} else {
		// Synthetic key-relation Rk(Kk): fresh attributes compatible with
		// the member keys.
		m.Synthetic = true
		firstKey := members[0].Key
		for i := range firstKey {
			name := fmt.Sprintf("%s.K%d", mergedName, i+1)
			attrs = append(attrs, schema.Attribute{Name: name, Domain: first.Domain(firstKey[i])})
			m.Km = append(m.Km, name)
		}
		m.Xk = append([]string(nil), m.Km...)
	}
	for _, mb := range members {
		if mb.Name == keyRel {
			continue
		}
		mrs := s.Scheme(mb.Name)
		attrs = append(attrs, mrs.Attrs...)
	}
	merged := schema.NewScheme(mergedName, attrs, m.Km)
	// Candidate keys of members beyond their primary keys carry over; they
	// are the nullable candidate keys Prop. 5.1(ii) warns about (for
	// non-key-relation members).
	for _, mb := range members {
		for _, ck := range s.Scheme(mb.Name).CandidateKeys {
			merged.CandidateKeys = append(merged.CandidateKeys, append([]string(nil), ck...))
		}
	}
	m.FullAttrs = merged.AttrNames()
	step1.End()

	// Step 2 (and the scheme replacement): drop members (their key
	// dependencies and null constraints go with them), add Rm with
	// Rm: Km → Xm.
	_, step2 := obs.Span(ctx, "merge.step2.dependencies")
	for _, mb := range members {
		out.RemoveScheme(mb.Name)
	}
	out.AddScheme(merged)
	step2.End()

	// Step 3: null constraints N'.
	_, step3 := obs.Span(ctx, "merge.step3.null_constraints")
	// 3(a): NNA on Xk.
	out.Nulls = append(out.Nulls, schema.NNA(mergedName, m.Xk...))
	// 3(b): total-equality Km =⊥ Ki for every member with Ki ≠ Km.
	for _, mb := range members {
		if mb.Name == keyRel {
			continue
		}
		out.Nulls = append(out.Nulls, schema.NewTotalEquality(mergedName, m.Km, mb.Key))
	}
	// 3(c): null-synchronization NS(Xi) for every non-key-relation member
	// with more than one attribute.
	for _, mb := range members {
		if mb.Name == keyRel || len(mb.Attrs) < 2 {
			continue
		}
		out.Nulls = append(out.Nulls, schema.NewNullSync(mergedName, mb.Attrs...))
	}
	// 3(d): part-null over the member attribute sets when Rk ∉ R̄.
	if m.Synthetic {
		sets := make([][]string, len(members))
		for i, mb := range members {
			sets[i] = append([]string(nil), mb.Attrs...)
		}
		out.Nulls = append(out.Nulls, schema.NewPartNull(mergedName, sets...))
	}
	// 3(e): inner-relational null-existence constraints Xj ⊑ Xi for every
	// original inclusion dependency Rj[Kj] ⊆ Ri[Ki] between members with
	// Ki ≠ Km. (The paper writes the IND form Rj[Z] ⊆ Ri[Ki]; the constraint
	// Xj ⊑ Xi expresses the tuple-wise existence implication, which is sound
	// exactly when Z is Rj's primary key — the only form arising in key-based
	// schemas — so that is what we require.)
	for _, ind := range s.INDs {
		rj, ri := m.Member(ind.Left), m.Member(ind.Right)
		if rj == nil || ri == nil || ri.Name == keyRel {
			continue
		}
		if !schema.EqualAttrSets(ind.LeftAttrs, rj.Key) || !schema.EqualAttrSets(ind.RightAttrs, ri.Key) {
			continue
		}
		out.Nulls = append(out.Nulls, schema.NewNullExistence(mergedName, rj.Attrs, ri.Attrs))
	}

	step3.End()

	// Step 4: inclusion dependencies I'.
	_, step4 := obs.Span(ctx, "merge.step4.inclusion_dependencies")
	out.INDs = m.rewriteINDs(s.INDs)
	step4.End()

	m.Schema = out
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: merge produced an invalid schema: %w", err)
	}
	m.traceMerge()
	for _, line := range m.trace {
		cfg.observe(line)
	}
	return m, nil
}

// rewriteINDs applies Definition 4.1 step 4 to the original IND set:
// (a) substitute Rm for members on either side; (b) in internal dependencies
// Rm[Z] ⊆ Rm[Ki], replace Ki with Km (position-wise); (c) drop internal
// dependencies Rm[Ki] ⊆ Rm[Km] whose left side is a member's primary key —
// they are implied by the total-equality and null-existence constraints.
// Duplicates arising from the rewrite are removed.
func (m *MergedScheme) rewriteINDs(inds []schema.IND) []schema.IND {
	var out []schema.IND
	seen := make(map[string]bool)
	for _, ind := range inds {
		nd := ind
		leftMember, rightMember := m.Member(nd.Left), m.Member(nd.Right)
		if leftMember != nil {
			nd.Left = m.Name
		}
		if rightMember != nil {
			nd.Right = m.Name
		}
		if nd.Left == m.Name && nd.Right == m.Name {
			// (b): right side Ki -> Km.
			if rightMember != nil && schema.EqualAttrSets(nd.RightAttrs, rightMember.Key) {
				nd.RightAttrs = m.alignKm(rightMember, nd.RightAttrs)
			}
			// (c): drop Rm[Ki] ⊆ Rm[Km].
			if leftMember != nil && schema.EqualAttrSets(nd.LeftAttrs, leftMember.Key) &&
				schema.EqualAttrSets(nd.RightAttrs, m.Km) {
				continue
			}
			// Fully internal self-dependency on identical sides is trivial.
			if schema.EqualAttrLists(nd.LeftAttrs, nd.RightAttrs) {
				continue
			}
		}
		if !seen[nd.Key()] {
			seen[nd.Key()] = true
			out = append(out, nd)
		}
	}
	return out
}
