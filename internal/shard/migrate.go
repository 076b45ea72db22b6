package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
)

// metaOf derives the per-relation metadata of s: positions, and which
// relations some inclusion dependency references.
func metaOf(s *schema.Schema) map[string]*relMeta {
	meta := make(map[string]*relMeta, len(s.Relations))
	for _, rs := range s.Relations {
		hdr := relation.New(rs.AttrNames()...)
		meta[rs.Name] = &relMeta{
			name:  rs.Name,
			hdr:   hdr,
			pkPos: hdr.Positions(rs.PrimaryKey),
			arity: hdr.Arity(),
		}
	}
	for _, ind := range s.INDs {
		if m := meta[ind.Right]; m != nil {
			m.referenced = true
		}
	}
	return meta
}

// Migrate swaps every shard onto the design spec derives on the current one.
// η is shard-local: a row is placed by its key value, which a merge's members
// share, so each shard maps its own slice. With gmu held exclusively: (1)
// stage every shard (engine.StageMigration: its η and the row half of the
// new design's constraint program); (2) check that every staged row hashes
// to its shard, and fold the program's IND half over the staged shards;
// (3) commit the shards in order. A failure before the first commit leaves
// the old design standing; after it only a log-device failure can interrupt
// the rollout, leaving each shard to recover the design its log committed.
func (r *Router) Migrate(spec core.Spec) error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	staged := make([]engine.StagedMigration, len(r.shards))
	defer func() {
		for i := range staged {
			staged[i].Abort()
		}
	}()
	views := make([]*engine.View, len(r.shards))
	for i, db := range r.shards {
		var err error
		if staged[i], err = db.StageMigration(spec); err != nil {
			return fmt.Errorf("shard: migrate: shard %d: %w", i, err)
		}
		views[i] = staged[i].View()
	}
	ns := staged[0].Schema()
	meta := metaOf(ns)
	if err := r.checkPlacement(meta, views); err != nil {
		return fmt.Errorf("shard: migrate: %w", err)
	}
	if err := checkINDs(ns, views); err != nil {
		return fmt.Errorf("shard: migrate: mapped state fails constraint validation: %w", err)
	}
	for i := range staged {
		if err := staged[i].Commit(); err != nil {
			if i == 0 {
				// Nothing installed anywhere: the old design stands.
				return fmt.Errorf("shard: migrate: %w", err)
			}
			return fmt.Errorf("shard: migrate: interrupted after %d/%d shards — shard designs diverge until the logs are recovered: %w", i, len(r.shards), err)
		}
	}
	r.schema, r.meta = ns, meta
	return nil
}

// checkPlacement reports a row of views[i] whose primary key hashes to a
// shard other than i: a row the router would never look for where it is.
func (r *Router) checkPlacement(meta map[string]*relMeta, views []*engine.View) error {
	var kb [64]byte
	for i, v := range views {
		for _, m := range meta {
			var misplaced relation.Tuple
			engine.Rows(v)(m.name, func(tup relation.Tuple) bool {
				if r.shardOf(m.pkOf(kb[:0], tup)) != i {
					misplaced = tup
				}
				return misplaced == nil
			})
			if misplaced != nil {
				return fmt.Errorf("%s tuple %v was mapped on shard %d, which its key does not hash to", m.name, misplaced, i)
			}
		}
	}
	return nil
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
