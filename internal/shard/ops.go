package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/relation"
)

// InsertCtx hashes the tuple's primary key to its owning shard and inserts
// there under the router lock (shared — independent single-shard writes run
// concurrently) and the relation's outgoing edge locks (shared — the
// cross-shard foreign-key probes this insert may issue must not interleave
// with a referenced-side delete).
func (r *Router) InsertCtx(ctx context.Context, name string, tup relation.Tuple) error {
	r.m.routedOps.Inc()
	m := r.meta[name]
	r.gmu.RLock()
	defer r.gmu.RUnlock()
	if m == nil || len(tup) != m.arity {
		// Unknown relation or arity mismatch: no routing key exists. Any
		// shard rejects with the engine's own error.
		return r.shards[0].InsertCtx(ctx, name, tup)
	}
	unlock := lockEdges(r.insertPlan[name])
	defer unlock()
	return r.shards[r.ShardOf(m.pkOf(tup))].InsertCtx(ctx, name, tup)
}

// DeleteCtx routes by the primary key, holding the relation's incoming edge
// locks exclusively: a sibling shard's foreign-key probe for this key either
// completes (and caches) before the delete starts, or probes after it — and
// the cache entry is dropped before the edges release, so no probe can
// observe the deleted row through a stale cache.
func (r *Router) DeleteCtx(ctx context.Context, name string, key relation.Tuple) error {
	r.m.routedOps.Inc()
	r.gmu.RLock()
	defer r.gmu.RUnlock()
	if r.meta[name] == nil {
		return r.shards[0].DeleteCtx(ctx, name, key)
	}
	unlock := lockEdges(r.removePlan[name])
	defer unlock()
	ek := key.EncodeKey()
	err := r.shards[r.ShardOf(ek)].DeleteCtx(ctx, name, key)
	if err == nil {
		r.m.invalidations.Inc()
		r.invalidate(name, ek)
	}
	return err
}

// UpdateCtx routes by the OLD primary key. When the new tuple's key hashes
// to the same shard the engine's update runs there directly; when it hashes
// elsewhere the update migrates the row — a serialized two-shard
// delete+insert that validates through the pending overlay so its
// constraint outcomes match the engine's one-shard update semantics (see
// crossUpdate).
func (r *Router) UpdateCtx(ctx context.Context, name string, key, newTup relation.Tuple) error {
	r.m.routedOps.Inc()
	m := r.meta[name]
	if m == nil || len(newTup) != m.arity {
		r.gmu.RLock()
		defer r.gmu.RUnlock()
		return r.shards[0].UpdateCtx(ctx, name, key, newTup)
	}
	oldEk := key.EncodeKey()
	newEk := m.pkOf(newTup)
	src, dst := r.ShardOf(oldEk), r.ShardOf(newEk)
	if src == dst {
		r.gmu.RLock()
		defer r.gmu.RUnlock()
		unlock := lockEdges(r.updatePlan[name])
		defer unlock()
		err := r.shards[src].UpdateCtx(ctx, name, key, newTup)
		if err == nil && oldEk != newEk {
			r.m.invalidations.Inc()
			r.invalidate(name, oldEk)
		}
		return err
	}
	return r.crossUpdate(ctx, name, key, newTup, oldEk, newEk, src, dst)
}

// crossUpdate migrates a row whose updated primary key hashes to a
// different shard: delete on the source shard, insert on the destination,
// serialized against all other writes (router lock exclusive) and validated
// through the pending overlay so each half sees the other. Prevalidation on
// both shards precedes any mutation; after it, only log-device failures can
// interrupt, and a failure after the insert is compensated by deleting the
// migrated row again.
func (r *Router) crossUpdate(ctx context.Context, name string, key, newTup relation.Tuple, oldEk, newEk string, src, dst int) error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	_, ok, err := r.shards[src].GetByKeyCtx(ctx, name, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: no %s tuple with key %v", engine.ErrNoSuchTuple, name, key)
	}
	r.pending = newOverlay()
	r.pending.addDel(name, oldEk)
	r.pending.addIns(name, newEk, newTup)
	defer func() { r.pending = nil }()
	if err := r.shards[dst].PrevalidateBatchCtx(ctx, []engine.BatchOp{engine.Ins(name, newTup)}); err != nil {
		return updateParity(err)
	}
	if err := r.shards[src].PrevalidateBatchCtx(ctx, []engine.BatchOp{engine.Del(name, key)}); err != nil {
		return updateParity(err)
	}
	if err := r.shards[dst].InsertCtx(ctx, name, newTup); err != nil {
		return err
	}
	if err := r.shards[src].DeleteCtx(ctx, name, key); err != nil {
		// The insert landed but the delete's log refused: undo the insert so
		// the row is not duplicated across shards.
		r.m.compensations.Inc()
		if cerr := r.shards[dst].DeleteCtx(context.Background(), name, m2key(r.meta[name], newTup)); cerr != nil {
			return fmt.Errorf("shard: update compensation failed (%v) after: %w", cerr, err)
		}
		return err
	}
	r.m.invalidations.Inc()
	r.invalidate(name, oldEk)
	return nil
}

// m2key extracts a tuple's primary key as a key tuple (pk attribute order).
func m2key(m *relMeta, tup relation.Tuple) relation.Tuple {
	return tup.Project(m.pkPos)
}

// updateParity maps a single-op prevalidation error back to the engine's
// update error surface: the batch wrapper is stripped, and a restrict
// violation raised by the delete half reports Op "update", exactly as the
// engine's one-shard updateLocked would.
func updateParity(err error) error {
	var cv *engine.ConstraintViolation
	if errors.As(err, &cv) {
		c := *cv
		if c.Op == "delete" {
			c.Op = "update"
		}
		return &c
	}
	if strings.HasPrefix(err.Error(), "engine: batch op ") {
		if inner := errors.Unwrap(err); inner != nil {
			return inner
		}
	}
	return err
}

// GetByKeyCtx routes the lookup to the key's owning shard. Like the
// engine's, the read is lock-free — it pins the owner's current published
// version and takes no router lock.
func (r *Router) GetByKeyCtx(ctx context.Context, name string, key relation.Tuple) (relation.Tuple, bool, error) {
	if r.meta[name] == nil {
		return r.shards[0].GetByKeyCtx(ctx, name, key)
	}
	return r.shards[r.ShardOf(key.EncodeKey())].GetByKeyCtx(ctx, name, key)
}

// Scan visits every tuple of the relation across all shards. Each shard's
// scan pins that shard's current version: the scan is per-shard consistent
// but not a single cross-shard snapshot (a concurrent single-shard write may
// be visible on one shard and not another). Iteration order is unspecified.
func (r *Router) Scan(name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	for _, db := range r.shards {
		if err := db.Scan(name, pred, visit); err != nil {
			return err
		}
	}
	return nil
}
