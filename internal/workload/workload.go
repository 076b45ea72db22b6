// Package workload builds the synthetic schemas, data, and query/update
// workloads behind relbench (benchmark/) and the micro-benchmarks in
// bench_test.go:
//
//   - StarEER(n): an object-set involved with Many cardinality in n
//     attribute-less binary many-to-one relationship-sets — the figure 8(iv)
//     shape, which merges to an only-NNA relation (Prop. 5.2);
//   - ChainEER(n): a chain of relationship-sets each hanging off the previous
//     one — the figure 7 OFFER/TEACH shape generalized, which merges to a
//     relation with a chain of null-existence constraints needing procedural
//     (trigger-style) maintenance.
//
// Bench pairs a base (unmerged) engine with a merged engine over the same
// data and exposes the object-profile query both ways, so benchmarks measure
// the access-path saving merging buys and the constraint-maintenance cost it
// incurs.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eer"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
)

// StarEER builds the star schema: center entity E0 and relationship-sets
// R1..Rn, each binary many-to-one from E0 to a fresh target entity Ti.
func StarEER(n int) *eer.Schema {
	s := eer.New()
	s.Entities = append(s.Entities, &eer.EntitySet{
		Name: "E0", Prefix: "E0",
		OwnAttrs:  []eer.Attr{{Name: "E0.ID", Domain: "e0_id"}},
		ID:        []string{"E0.ID"},
		CopyBases: []string{"ID"},
	})
	for i := 1; i <= n; i++ {
		tn := fmt.Sprintf("T%d", i)
		s.Entities = append(s.Entities, &eer.EntitySet{
			Name: tn, Prefix: tn,
			OwnAttrs: []eer.Attr{{Name: tn + ".ID", Domain: fmt.Sprintf("t%d_id", i)}},
			ID:       []string{tn + ".ID"},
		})
		rn := fmt.Sprintf("R%d", i)
		s.Relationships = append(s.Relationships, &eer.RelationshipSet{
			Name: rn, Prefix: rn,
			Parts: []eer.Participant{
				{Object: "E0", Card: eer.Many},
				{Object: tn, Card: eer.One},
			},
		})
	}
	return s
}

// ChainEER builds the chain schema: entity E0, relationship-set R1 from E0,
// and each subsequent Ri hanging off R(i-1) — so merging produces the
// null-existence constraint chain Xi ⊑ X(i-1).
func ChainEER(n int) *eer.Schema {
	s := eer.New()
	s.Entities = append(s.Entities, &eer.EntitySet{
		Name: "E0", Prefix: "E0",
		OwnAttrs:  []eer.Attr{{Name: "E0.ID", Domain: "e0_id"}},
		ID:        []string{"E0.ID"},
		CopyBases: []string{"ID"},
	})
	prev := "E0"
	for i := 1; i <= n; i++ {
		tn := fmt.Sprintf("T%d", i)
		s.Entities = append(s.Entities, &eer.EntitySet{
			Name: tn, Prefix: tn,
			OwnAttrs: []eer.Attr{{Name: tn + ".ID", Domain: fmt.Sprintf("t%d_id", i)}},
			ID:       []string{tn + ".ID"},
		})
		rn := fmt.Sprintf("R%d", i)
		s.Relationships = append(s.Relationships, &eer.RelationshipSet{
			Name: rn, Prefix: rn,
			Parts: []eer.Participant{
				{Object: prev, Card: eer.Many},
				{Object: tn, Card: eer.One},
			},
		})
		prev = rn
	}
	return s
}

// MergeSetFor returns the canonical merge set for a workload schema: every
// relation-scheme whose primary key is compatible with root's, rooted at
// root (declaration order preserved).
func MergeSetFor(s *schema.Schema, root string) []string {
	rs := s.Scheme(root)
	if rs == nil {
		return nil
	}
	var out []string
	for _, other := range s.Relations {
		if other.Name == root || rs.KeyCompatible(other) {
			out = append(out, other.Name)
		}
	}
	return out
}

// Bench is a matched pair of engines over the same logical data: the base
// (one relation per object-set) and the merged (single relation for the
// merge set, key copies removed).
type Bench struct {
	Base   *engine.DB
	Merged *engine.DB
	Scheme *core.MergedScheme
	// Root is the center relation the merge set was built around.
	Root string
	// Keys holds the center keys present in the data, for query workloads.
	Keys []relation.Tuple
	// MemberNames are the merge-set schemes, for the base-side profile query.
	MemberNames []string
	baseSchema  *schema.Schema
	nextKey     int
}

// NewBench translates the EER schema, merges the key-compatible cluster
// around root, applies RemoveAll, generates rows of consistent data, and
// loads both engines.
func NewBench(es *eer.Schema, root string, rows int, seed int64) (*Bench, error) {
	base, err := translate.MS(es)
	if err != nil {
		return nil, err
	}
	names := MergeSetFor(base, root)
	if len(names) < 2 {
		return nil, fmt.Errorf("workload: merge set around %s has %d members", root, len(names))
	}
	m, err := core.Merge(base, names, "MERGED")
	if err != nil {
		return nil, err
	}
	m.RemoveAll()

	rng := rand.New(rand.NewSource(seed))
	st, err := state.Generate(base, rng, state.GenOptions{Rows: rows, DomainSize: 4 * rows})
	if err != nil {
		return nil, err
	}

	b := &Bench{Scheme: m, Root: root, MemberNames: names, baseSchema: base, nextKey: 1 << 20}
	b.Base, err = engine.Open(base)
	if err != nil {
		return nil, err
	}
	if err := b.Base.LoadCtx(context.Background(), st); err != nil {
		return nil, err
	}
	b.Merged, err = engine.Open(m.Schema)
	if err != nil {
		return nil, err
	}
	if err := b.Merged.LoadCtx(context.Background(), m.MapState(st)); err != nil {
		return nil, err
	}

	rootScheme := base.Scheme(root)
	for _, tup := range st.Relation(root).Tuples() {
		b.Keys = append(b.Keys, tup.Project(st.Relation(root).Positions(rootScheme.PrimaryKey)))
	}
	return b, nil
}

// ProfileBase runs the object-profile query on the base engine: one key
// lookup per merge-set member (the unmerged access path requires joining —
// here navigating — every member relation). It returns the number of member
// relations that had a tuple for the key.
func (b *Bench) ProfileBase(key relation.Tuple) int {
	found := 0
	for _, name := range b.MemberNames {
		if _, ok, _ := b.Base.GetByKeyCtx(context.Background(), name, key); ok {
			found++
		}
	}
	return found
}

// ProfileMerged runs the same query on the merged engine: a single key
// lookup. It returns 1 if the key exists.
func (b *Bench) ProfileMerged(key relation.Tuple) int {
	if _, ok, _ := b.Merged.GetByKeyCtx(context.Background(), b.Scheme.Name, key); ok {
		return 1
	}
	return 0
}

// InsertMergedRow inserts a fresh full row into the merged relation
// (exercising its constraint set) and the corresponding rows into the base
// relations (exercising theirs): the merged row is η of the base rows. It
// returns an error if either side refuses. Rows reference the first tuple of
// each target relation, so targets must be non-empty.
func (b *Bench) InsertMergedRow() error {
	b.nextKey++
	key := relation.NewString(fmt.Sprintf("e0_id-%d", b.nextKey))

	// Base-side rows, one per member; fill foreign keys from the first tuple
	// of each referenced relation.
	parts := make([]relation.Tuple, len(b.MemberNames))
	for m, name := range b.MemberNames {
		rs := b.baseSchema.Scheme(name)
		hdr := relation.New(rs.AttrNames()...)
		row := make(relation.Tuple, len(rs.Attrs))
		for _, p := range hdr.Positions(rs.PrimaryKey) {
			row[p] = key
		}
		for _, ind := range b.baseSchema.INDsFrom(name) {
			if schema.SubsetOf(ind.LeftAttrs, rs.PrimaryKey) {
				continue // key-copy dependency, already set
			}
			target := b.Base.Relation(ind.Right)
			if target.Len() == 0 {
				return fmt.Errorf("workload: empty dependency target %s", ind.Right)
			}
			sample := target.Tuples()[0].Project(target.Positions(ind.RightAttrs))
			for i, p := range hdr.Positions(ind.LeftAttrs) {
				row[p] = sample[i]
			}
		}
		for i := range row {
			if row[i].IsNull() {
				row[i] = relation.NewString(fmt.Sprintf("fill-%d", b.nextKey))
			}
		}
		if err := b.Base.InsertCtx(context.Background(), name, row); err != nil {
			return fmt.Errorf("workload: base insert into %s: %w", name, err)
		}
		parts[m] = row
	}
	if err := b.Merged.InsertCtx(context.Background(), b.Scheme.Name, b.Scheme.Mapping().Eta(parts)); err != nil {
		return fmt.Errorf("workload: merged insert: %w", err)
	}
	return nil
}
