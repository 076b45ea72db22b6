package shard

import (
	"context"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/state"
)

// Begin opens the global transaction on every shard, in lockstep: shard i's
// Begin failing rolls the transaction back on shards 0..i-1, so the router
// is never half in a transaction. All transaction control serializes against
// every other router operation (router lock exclusive) — the engine's single
// global transaction is a coarse instrument and keeps that character here.
func (r *Router) Begin() error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	for i, db := range r.shards {
		if err := db.Begin(); err != nil {
			for j := i - 1; j >= 0; j-- {
				r.shards[j].Rollback()
			}
			return err
		}
	}
	return nil
}

// Commit commits the transaction on every shard. The first error is
// returned; like the engine's Commit, a failed commit marker leaves that
// shard's transaction open for the caller to Rollback.
func (r *Router) Commit() error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	var first error
	for _, db := range r.shards {
		if err := db.Commit(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Rollback reverses the transaction on every shard.
func (r *Router) Rollback() error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	var first error
	for _, db := range r.shards {
		if err := db.Rollback(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// InTxn reports whether the global transaction is open (on shard 0; Begin's
// lockstep keeps all shards in agreement).
func (r *Router) InTxn() bool { return r.shards[0].InTxn() }

// StatsTotals aggregates the shard engines' monotonic counters: counts sum;
// the LSN stamp is the maximum across shards (each shard's version chain
// advances independently, so the router's "version" is the envelope).
func (r *Router) StatsTotals() engine.StatsSnapshot {
	var out engine.StatsSnapshot
	for _, db := range r.shards {
		st := db.StatsTotals()
		out.Inserts += st.Inserts
		out.Deletes += st.Deletes
		out.Updates += st.Updates
		out.Lookups += st.Lookups
		out.DeclarativeChecks += st.DeclarativeChecks
		out.TriggerFirings += st.TriggerFirings
		out.IndexLookups += st.IndexLookups
		out.TuplesScanned += st.TuplesScanned
		if st.VersionLSN > out.VersionLSN {
			out.VersionLSN = st.VersionLSN
		}
	}
	return out
}

// Checkpoint snapshots every shard's state into its own log, serialized
// against all writes so the per-shard checkpoints capture one cross-shard
// consistent cut. A non-durable router returns the engine's ErrNotDurable
// (from shard 0) untouched.
func (r *Router) Checkpoint() error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	for _, db := range r.shards {
		if err := db.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every shard engine, returning the first error.
func (r *Router) Close() error {
	var first error
	for _, db := range r.shards {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// View pins every shard's current published version as one read view. The
// per-shard pins are taken without serializing against writers, so the view
// is per-shard consistent (each shard's half is an MVCC snapshot) but not a
// single cross-shard cut unless taken while writes are quiesced.
type View struct {
	r     *Router
	views []*engine.View
}

// View pins the shards' current versions.
func (r *Router) View() *View {
	v := &View{r: r, views: make([]*engine.View, len(r.shards))}
	for i, db := range r.shards {
		v.views[i] = db.View()
	}
	return v
}

// LSN returns the maximum LSN stamp across the pinned shard versions.
func (v *View) LSN() uint64 {
	var max uint64
	for _, sv := range v.views {
		if l := sv.LSN(); l > max {
			max = l
		}
	}
	return max
}

// Count sums the relation's tuple count across the pinned versions.
func (v *View) Count(name string) int {
	n := 0
	for _, sv := range v.views {
		n += sv.Count(name)
	}
	return n
}

// GetByKey looks the key up in the owning shard's pinned version.
func (v *View) GetByKey(name string, key relation.Tuple) (relation.Tuple, bool) {
	if v.r.meta[name] == nil {
		return v.views[0].GetByKey(name, key)
	}
	return v.views[v.r.keyOwner(key)].GetByKey(name, key)
}

// Scan visits the relation's tuples across all pinned versions.
func (v *View) Scan(name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	for _, sv := range v.views {
		if err := sv.Scan(name, pred, visit); err != nil {
			return err
		}
	}
	return nil
}

// LoadCtx is the engine's bulk load one level up (state.DB.Replay): relations
// load in an order that respects inclusion dependencies, each as one atomic
// (possibly cross-shard) insert group.
func (r *Router) LoadCtx(ctx context.Context, st *state.DB) error {
	return st.Replay(ctx, r.schema, r.InsertBatchCtx)
}

// Snapshot exports the union of the shards' contents as one state.DB. Each
// shard contributes its pinned version; see View for the consistency grain.
func (r *Router) Snapshot() *state.DB {
	out := &state.DB{Relations: make(map[string]*relation.Relation)}
	for _, m := range r.meta {
		rel := relation.New(m.hdr.Attrs()...)
		out.Set(m.name, rel)
	}
	v := r.View()
	for _, m := range r.meta {
		rel := out.Relation(m.name)
		v.Scan(m.name, nil, func(tup relation.Tuple) {
			rel.Add(tup.Clone())
		})
	}
	return out
}
