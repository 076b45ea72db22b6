package core

import (
	"slices"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
)

// Mapping is the merge's state mapping compiled once, as positions in
// scheme attribute order: η of Definition 4.1 with every Remove's μ composed
// in, and η′ with every μ′. The engine's migration and replay run it,
// MigrationSQL prints it and the query planner reads it; MapState and
// UnmapState are its relational-algebra reference. η looks every member up
// under each key of the drivers: on a consistent state the paper's full
// outer-equi-join, as the key-relation holds every member's key (Prop. 3.1)
// and a synthetic key-relation's keys are the union of the members' keys.
type Mapping struct {
	// Drivers index Members: the key-relation, or every member if synthetic.
	Drivers []int
	Km      []int    // the merged positions of Km
	Cols    []Source // by merged position: where η takes the value from
	Parts   []Part   // by member: where η′ reads it from
	Removed []int    // the members whose key copy a Remove dropped
}

// Source is attribute Attr of member Member or, when Member is -1, the
// Attr-th key attribute of any member present (a synthetic Km attribute).
type Source struct{ Member, Attr int }

// Part is one member's side of the mapping.
type Part struct {
	// At is the merged position of each attribute of Xi; for an attribute a
	// Remove dropped, the position of the Km attribute μ′ restores it from.
	At  []int
	Key []int // Ki's positions in Xi, in Km order
}

// Mapping returns the state mapping of the current Schema.
func (m *MergedScheme) Mapping() *Mapping { return m.mapping }

func (m *MergedScheme) compileMapping() {
	attrs := m.Schema.Scheme(m.Name).AttrNames()
	mp := &Mapping{Cols: make([]Source, len(attrs)), Parts: make([]Part, len(m.Members))}
	for k, a := range m.Km {
		mp.Km = append(mp.Km, slices.Index(attrs, a))
		mp.Cols[mp.Km[k]] = Source{Member: -1, Attr: k} // the key-relation overwrites it below
	}
	for i := range m.Members {
		mb, part := &m.Members[i], &mp.Parts[i]
		if m.Synthetic || mb.Name == m.KeyRelation {
			mp.Drivers = append(mp.Drivers, i)
		}
		if m.removed(mb.Name) {
			mp.Removed = append(mp.Removed, i)
		}
		for j, a := range mb.Attrs {
			p := slices.Index(attrs, a)
			if p < 0 {
				p = slices.Index(attrs, m.kmFor(mb, a))
			} else {
				mp.Cols[p] = Source{Member: i, Attr: j}
			}
			part.At = append(part.At, p)
		}
		for _, a := range mb.Key {
			part.Key = append(part.Key, slices.Index(mb.Attrs, a))
		}
	}
	m.mapping = mp
}

// Eta is η for one key: the merged row built from parts, member i's tuple
// under the key or nil.
func (mp *Mapping) Eta(parts []relation.Tuple) relation.Tuple {
	row := make(relation.Tuple, len(mp.Cols))
	for p, c := range mp.Cols {
		if c.Member >= 0 {
			if t := parts[c.Member]; t != nil {
				row[p] = t[c.Attr]
			}
			continue
		}
		for i, t := range parts {
			if t != nil {
				row[p] = t[mp.Parts[i].Key[c.Attr]]
				break
			}
		}
	}
	return row
}

// EtaInv is η′ for one merged row and one member: the member's tuple, its
// removed key copy restored from Km (μ′), or false when that tuple is not
// total and so not in π↓_Xi.
func (mp *Mapping) EtaInv(row relation.Tuple, member int) (relation.Tuple, bool) {
	at := mp.Parts[member].At
	t := make(relation.Tuple, len(at))
	for j, p := range at {
		if row[p].IsNull() {
			return nil, false
		}
		t[j] = row[p]
	}
	return t, true
}

// MapState applies the forward state mapping of the merge — η of Definition
// 4.1 composed with the μ projections of every Remove applied so far — to a
// database state of the original schema RS, producing a state of the current
// rewritten schema. It is the reference the compiled Mapping is tested
// against.
//
// η is computed exactly as the paper defines it: r_m starts as the
// key-relation's relation (or, for a synthetic key-relation, the union of
// the renamed key projections of the members) and is outer-equi-joined with
// each remaining member's relation on Km = Ki; each Remove then projects out
// the removed attributes.
func (m *MergedScheme) MapState(db *state.DB) *state.DB {
	memberSet := make(map[string]bool, len(m.Members))
	for _, mb := range m.Members {
		memberSet[mb.Name] = true
	}
	out := &state.DB{Relations: make(map[string]*relation.Relation, len(db.Relations))}
	for name, r := range db.Relations {
		if !memberSet[name] {
			out.Set(name, r.Clone())
		}
	}

	var rm *relation.Relation
	if m.Synthetic {
		rm = relation.New(m.Km...)
		for _, mb := range m.Members {
			proj := db.Relation(mb.Name).Project(mb.Key).Rename(mb.Key, m.Km)
			rm = rm.Union(proj)
		}
	} else {
		rm = db.Relation(m.KeyRelation).Clone()
	}
	for _, mb := range m.Members {
		if mb.Name == m.KeyRelation {
			continue
		}
		rm = rm.OuterEquiJoin(db.Relation(mb.Name), relation.JoinSpec{Left: m.Km, Right: mb.Key})
	}

	// μ chain: project onto the current (possibly reduced) Xm.
	rm = rm.Project(m.Schema.Scheme(m.Name).AttrNames())
	out.Set(m.Name, rm)
	return out
}

// UnmapState applies the inverse state mapping — the μ′ reconstructions of
// the removals in reverse order, followed by η′ — to a database state of the
// current rewritten schema, producing a state of the original schema RS. It
// is the reference the compiled Mapping's η′ is tested against.
//
// μ′ restores a removed key copy Yj by outer-equi-joining r_m with
// rename(π_Km(π↓_{Km ∪ (Xi−Yj)}(r_m)), Km ← Yj) on Km = Yj: a tuple whose
// surviving member attributes are total regains Yj = Km, all others get null
// Yj. η′ recovers each member's relation as the total projection π↓_Xi(r_m).
func (m *MergedScheme) UnmapState(db *state.DB) *state.DB {
	out := &state.DB{Relations: make(map[string]*relation.Relation, len(db.Relations))}
	for name, r := range db.Relations {
		if name != m.Name {
			out.Set(name, r.Clone())
		}
	}
	r := db.Relation(m.Name).Clone()
	for i := len(m.removals) - 1; i >= 0; i-- {
		yj := m.removals[i].Key
		remaining := schema.DiffAttrs(m.removals[i].Attrs, yj)
		right := r.TotalProject(schema.UnionAttrs(m.Km, remaining)).
			Project(m.Km).
			Rename(m.Km, yj)
		r = r.OuterEquiJoin(right, relation.JoinSpec{Left: m.Km, Right: yj})
	}
	r = r.Project(m.FullAttrs)
	for _, mb := range m.Members {
		out.Set(mb.Name, r.TotalProject(mb.Attrs))
	}
	return out
}

// RoundTrip reports whether η′∘η (with the removal mappings composed in) is
// the identity on the given state of the original schema — the
// information-capacity direction of Props. 4.1/4.2 exercised empirically.
func (m *MergedScheme) RoundTrip(db *state.DB) bool {
	return m.UnmapState(m.MapState(db)).Equal(db)
}

// RoundTripMerged reports whether η∘η′ is the identity on the given state of
// the rewritten schema — the converse direction of Definition 2.1's third
// condition.
func (m *MergedScheme) RoundTripMerged(db *state.DB) bool {
	return m.MapState(m.UnmapState(db)).Equal(db)
}
