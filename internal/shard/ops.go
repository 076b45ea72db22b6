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
// there under the router lock shared: single-shard inserts run concurrently,
// and the foreign-key probes this one may issue cannot interleave with a
// referenced-side delete, which holds the lock exclusively.
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
	return r.shards[r.ownerOf(m, tup)].InsertCtx(ctx, name, tup)
}

// DeleteCtx routes by the primary key. A delete on a referenced relation
// holds the router lock exclusively, so no foreign-key probe of a sibling
// shard runs while the row it may find disappears.
func (r *Router) DeleteCtx(ctx context.Context, name string, key relation.Tuple) error {
	r.m.routedOps.Inc()
	m := r.meta[name]
	excl := m != nil && m.referenced
	r.lockWrite(excl)
	defer r.unlockWrite(excl)
	if m == nil {
		return r.shards[0].DeleteCtx(ctx, name, key)
	}
	return r.shards[r.keyOwner(key)].DeleteCtx(ctx, name, key)
}

// UpdateCtx routes by the OLD primary key, locking like DeleteCtx. When the
// new tuple's key hashes to the same shard the engine's update runs there
// directly; when it hashes elsewhere the update migrates the row — a
// serialized two-shard delete+insert that validates through the pending
// overlay so its constraint outcomes match the engine's one-shard update
// semantics (see crossUpdate).
func (r *Router) UpdateCtx(ctx context.Context, name string, key, newTup relation.Tuple) error {
	r.m.routedOps.Inc()
	m := r.meta[name]
	if m == nil || len(newTup) != m.arity {
		r.gmu.RLock()
		defer r.gmu.RUnlock()
		return r.shards[0].UpdateCtx(ctx, name, key, newTup)
	}
	src, dst := r.keyOwner(key), r.ownerOf(m, newTup)
	if src != dst {
		return r.crossUpdate(ctx, m, key, newTup, src, dst)
	}
	r.lockWrite(m.referenced)
	defer r.unlockWrite(m.referenced)
	return r.shards[src].UpdateCtx(ctx, name, key, newTup)
}

// crossUpdate migrates a row whose updated primary key hashes to a
// different shard: delete on the source shard, insert on the destination,
// serialized against all other writes (router lock exclusive) and validated
// through the pending overlay so each half sees the other. Both halves are
// staged before either commits; after that only log-device failures can
// interrupt, and a failure after the insert committed is compensated by
// deleting the migrated row again.
func (r *Router) crossUpdate(ctx context.Context, m *relMeta, key, newTup relation.Tuple, src, dst int) error {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	name := m.name
	_, ok, err := r.shards[src].GetByKeyCtx(ctx, name, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: no %s tuple with key %v", engine.ErrNoSuchTuple, name, key)
	}
	r.pending = newOverlay()
	r.pending.addDel(name, key.EncodeKey())
	r.pending.addIns(name, string(m.pkOf(nil, newTup)), newTup)
	defer func() { r.pending = nil }()
	ins, err := r.shards[dst].StageBatchCtx(ctx, []engine.BatchOp{engine.Ins(name, newTup)})
	if err != nil {
		return updateParity(err)
	}
	defer ins.Abort()
	del, err := r.shards[src].StageBatchCtx(ctx, []engine.BatchOp{engine.Del(name, key)})
	if err != nil {
		return updateParity(err)
	}
	defer del.Abort()
	if err := ins.Commit(); err != nil {
		return err
	}
	if err := del.Commit(); err != nil {
		// The insert landed but the delete's log refused: undo the insert so
		// the row is not duplicated across shards.
		r.m.compensations.Inc()
		if cerr := r.shards[dst].DeleteCtx(context.Background(), name, newTup.Project(m.pkPos)); cerr != nil {
			return fmt.Errorf("shard: update compensation failed (%v) after: %w", cerr, err)
		}
		return err
	}
	return nil
}

// updateParity maps a single-op staging error back to the engine's
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
	return r.shards[r.keyOwner(key)].GetByKeyCtx(ctx, name, key)
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
