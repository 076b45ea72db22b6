package shard

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
)

// bindSchema (re)derives the per-relation metadata from s: positions, and
// which relations some inclusion dependency references. Called at Open and
// again by Migrate / recovered-design adoption, always with no operation in
// flight (router construction, or gmu held exclusively).
func (r *Router) bindSchema(s *schema.Schema) {
	r.schema = s
	r.meta = make(map[string]*relMeta, len(s.Relations))
	for _, rs := range s.Relations {
		hdr := relation.New(rs.AttrNames()...)
		r.meta[rs.Name] = &relMeta{
			name:  rs.Name,
			hdr:   hdr,
			pk:    rs.PrimaryKey,
			pkPos: hdr.Positions(rs.PrimaryKey),
			arity: hdr.Arity(),
		}
	}
	for _, ind := range s.INDs {
		if m := r.meta[ind.Right]; m != nil {
			m.referenced = true
		}
	}
}

// Migrate swaps every shard onto schema ns, carrying the partitioned state
// across through transform, which receives the UNION of the shards' contents
// (a merge's η mapping needs whole objects, and an object's parts may live on
// different shards pre-merge). The mapped state is re-validated against the
// new design's full constraint set — including the cross-shard inclusion
// dependencies no single shard can check — then re-partitioned by the new
// primary keys and installed shard by shard, each installation atomic in that
// shard's WAL (one schema-change record).
//
// The router serializes the whole migration against every operation (gmu
// exclusive), so readers keep answering on their pinned per-shard versions
// and no write straddles the designs. All validation runs before the first
// shard installs anything; after that point only a log-device failure can
// interrupt the rollout, which is reported and leaves the shards to converge
// on restart (each shard recovers the design its own log committed).
func (r *Router) Migrate(ns *schema.Schema, transform func(*state.DB) (*state.DB, error)) error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	if r.shards[0].InTxn() {
		return fmt.Errorf("%w: cannot migrate schema until it commits or rolls back", engine.ErrOpenTransaction)
	}
	union := r.Snapshot()
	mapped := union
	var err error
	if transform != nil {
		mapped, err = transform(union)
		if err != nil {
			return fmt.Errorf("shard: migrate: mapping state: %w", err)
		}
	}
	// The router sees the whole state, so unlike a single partition engine it
	// validates the complete constraint set, inclusion dependencies included.
	if err := state.Consistent(ns, mapped); err != nil {
		return fmt.Errorf("shard: migrate: mapped state fails constraint validation: %w", err)
	}

	parts, err := r.partitionState(ns, mapped)
	if err != nil {
		return fmt.Errorf("shard: migrate: %w", err)
	}
	for i, db := range r.shards {
		slice := parts[i]
		if err := db.MigrateSchema(ns, func(*state.DB) (*state.DB, error) { return slice, nil }); err != nil {
			if i == 0 {
				// Nothing installed anywhere: the old design stands.
				return fmt.Errorf("shard: migrate: %w", err)
			}
			return fmt.Errorf("shard: migrate: interrupted after %d/%d shards — shard designs diverge until the logs are recovered: %w", i, len(r.shards), err)
		}
	}
	r.bindSchema(ns)
	return nil
}

// partitionState splits st into per-shard slices by hashing each tuple's
// primary key under the NEW schema — the same placement rule every
// post-migration operation will use.
func (r *Router) partitionState(ns *schema.Schema, st *state.DB) ([]*state.DB, error) {
	parts := make([]*state.DB, len(r.shards))
	for i := range parts {
		parts[i] = state.New(ns)
	}
	for _, rs := range ns.Relations {
		src := st.Relation(rs.Name)
		if src == nil {
			continue
		}
		hdr := relation.New(rs.AttrNames()...)
		if !slices.Equal(src.Attrs(), hdr.Attrs()) {
			src = src.Project(hdr.Attrs())
		}
		pkPos := hdr.Positions(rs.PrimaryKey)
		var kb [64]byte
		for _, tup := range src.Tuples() {
			parts[r.shardOf(tup.AppendKeyAt(kb[:0], pkPos))].Relation(rs.Name).Add(tup.Clone())
		}
	}
	return parts, nil
}

// Schema returns the design the router currently serves.
func (r *Router) Schema() *schema.Schema { return r.schema }

// CoAccessStats aggregates the shard engines' per-IND-edge co-access
// counters by edge, hottest first — the router-level signal the online
// advisor consumes. Edge names are design-wide, so summing across shards is
// well-defined; a migration resets every shard's counters together.
func (r *Router) CoAccessStats() []engine.CoAccessStat {
	agg := make(map[[2]string]int64)
	for _, db := range r.shards {
		for _, e := range db.CoAccessStats() {
			agg[[2]string{e.Left, e.Right}] += e.Hits
		}
	}
	out := make([]engine.CoAccessStat, 0, len(agg))
	for edge, hits := range agg {
		out = append(out, engine.CoAccessStat{Left: edge[0], Right: edge[1], Hits: hits})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out
}
