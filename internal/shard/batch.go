package shard

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/relation"
)

// subBatch is one shard's slice of a cross-shard batch, with the fetched
// pre-images needed to build its inverse.
type subBatch struct {
	shard int
	ops   []engine.BatchOp
	old   []relation.Tuple // pre-image per op (delete/update), nil otherwise
}

// InsertBatchCtx splits the group by primary-key hash. A group that lands
// on one shard runs there as a native insert batch (identical semantics and
// error surface to the engine's). A group that spans shards runs
// all-or-nothing: the router repeats the engine's group prechecks (arity,
// intra-group duplicate keys) so they see the whole group, prevalidates
// every sub-group against the pending overlay, then applies shard by shard,
// compensating applied sub-groups if a log device fails mid-way.
func (r *Router) InsertBatchCtx(ctx context.Context, name string, tuples []relation.Tuple) error {
	m := r.meta[name]
	if m == nil {
		r.gmu.RLock()
		defer r.gmu.RUnlock()
		return r.shards[0].InsertBatchCtx(ctx, name, tuples)
	}
	if len(tuples) == 0 {
		return nil
	}
	// Split; any tuple that flunks the group prechecks forces the precheck
	// path but routes to shard 0 (the error preempts routing anyway).
	perShard := make(map[int][]relation.Tuple)
	involved := 0
	first := -1
	for _, tup := range tuples {
		sh := 0
		if len(tup) == m.arity {
			sh = r.ShardOf(m.pkOf(tup))
		}
		if perShard[sh] == nil {
			involved++
			if first < 0 {
				first = sh
			}
		}
		perShard[sh] = append(perShard[sh], tup)
	}
	if involved == 1 {
		r.m.localBatches.Inc()
		r.gmu.RLock()
		defer r.gmu.RUnlock()
		unlock := lockEdges(r.insertPlan[name])
		defer unlock()
		return r.shards[first].InsertBatchCtx(ctx, name, tuples)
	}
	r.m.crossBatches.Inc()
	r.gmu.Lock()
	defer r.gmu.Unlock()
	// The engine's group prechecks, over the whole group (a sub-group alone
	// could not see a duplicate split across shards): arity first, then
	// intra-group duplicate primary keys, with the engine's exact errors.
	seen := make(map[string]bool, len(tuples))
	for i, tup := range tuples {
		if len(tup) != m.arity {
			return fmt.Errorf("%w for %s (batch index %d)", engine.ErrArityMismatch, name, i)
		}
		pk := m.pkOf(tup)
		if seen[pk] {
			return &engine.ConstraintViolation{Kind: engine.PrimaryKeyViolation, Relation: name, Op: "insert-batch"}
		}
		seen[pk] = true
	}
	r.pending = newOverlay()
	defer func() { r.pending = nil }()
	subs := make([]subBatch, 0, involved)
	for sh := 0; sh < len(r.shards); sh++ {
		tups := perShard[sh]
		if tups == nil {
			continue
		}
		ops := make([]engine.BatchOp, len(tups))
		for i, tup := range tups {
			ops[i] = engine.Ins(name, tup)
			r.pending.addIns(name, m.pkOf(tup), tup)
		}
		subs = append(subs, subBatch{shard: sh, ops: ops})
	}
	for _, sb := range subs {
		if err := r.shards[sb.shard].PrevalidateBatchCtx(ctx, sb.ops); err != nil {
			return err
		}
	}
	return r.applyPhase(ctx, name, subs)
}

// ApplyBatchCtx routes a mixed batch. Ops are assigned to shards by primary
// key; an update whose new key hashes to a different shard is decomposed
// into a delete on the old owner and an insert on the new one. A batch
// confined to one shard runs there natively — order-sensitive, with the
// engine's exact semantics. A batch spanning shards is all-or-nothing but
// validates set-wise: every involved shard prevalidates its sub-batch with
// the whole batch visible through the pending overlay, then the sub-batches
// apply; a log-device failure mid-apply rolls back the applied prefix with
// inverse operations.
func (r *Router) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	// The engine's plan construction rejects unknown relations before any
	// other check, first occurrence wins.
	for _, op := range ops {
		if r.meta[op.Relation] == nil {
			return fmt.Errorf("%w %s", engine.ErrUnknownRelation, op.Relation)
		}
	}
	perShard := make(map[int][]engine.BatchOp)
	assign := func(sh int, op engine.BatchOp) { perShard[sh] = append(perShard[sh], op) }
	for _, op := range ops {
		m := r.meta[op.Relation]
		switch op.Kind {
		case engine.BatchInsert:
			sh := 0
			if len(op.Tuple) == m.arity {
				sh = r.ShardOf(m.pkOf(op.Tuple))
			}
			assign(sh, op)
		case engine.BatchDelete:
			assign(r.ShardOf(op.Key.EncodeKey()), op)
		case engine.BatchUpdate:
			src := r.ShardOf(op.Key.EncodeKey())
			if len(op.Tuple) != m.arity {
				assign(src, op)
				continue
			}
			dst := r.ShardOf(m.pkOf(op.Tuple))
			if src == dst {
				assign(src, op)
				continue
			}
			// Key migration: decompose. The overlay carries the update's
			// identity (old key removed, new tuple introduced), so constraint
			// checks on both shards see it as one movement.
			assign(src, engine.Del(op.Relation, op.Key))
			assign(dst, engine.Ins(op.Relation, op.Tuple))
		default:
			assign(0, op)
		}
	}
	if len(perShard) == 1 {
		r.m.localBatches.Inc()
		var sh int
		var sub []engine.BatchOp
		for s, o := range perShard {
			sh, sub = s, o
		}
		r.gmu.RLock()
		defer r.gmu.RUnlock()
		unlock := lockEdges(r.batchEdges(sub))
		defer unlock()
		err := r.shards[sh].ApplyBatchCtx(ctx, sub)
		if err == nil {
			r.invalidateBatch(sub)
		}
		return err
	}
	r.m.crossBatches.Inc()
	r.gmu.Lock()
	defer r.gmu.Unlock()
	r.pending = newOverlay()
	defer func() { r.pending = nil }()
	subs := make([]subBatch, 0, len(perShard))
	for sh := 0; sh < len(r.shards); sh++ {
		sub := perShard[sh]
		if sub == nil {
			continue
		}
		sb := subBatch{shard: sh, ops: sub, old: make([]relation.Tuple, len(sub))}
		var err error
		for i, op := range sub {
			m := r.meta[op.Relation]
			switch op.Kind {
			case engine.BatchInsert:
				if len(op.Tuple) == m.arity {
					r.pending.addIns(op.Relation, m.pkOf(op.Tuple), op.Tuple)
				}
			case engine.BatchDelete:
				r.pending.addDel(op.Relation, op.Key.EncodeKey())
				if sb.old[i], _, err = r.shards[sh].GetByKeyCtx(ctx, op.Relation, op.Key); err != nil {
					return err
				}
			case engine.BatchUpdate:
				r.pending.addDel(op.Relation, op.Key.EncodeKey())
				if len(op.Tuple) == m.arity {
					r.pending.addIns(op.Relation, m.pkOf(op.Tuple), op.Tuple)
				}
				if sb.old[i], _, err = r.shards[sh].GetByKeyCtx(ctx, op.Relation, op.Key); err != nil {
					return err
				}
			}
		}
		subs = append(subs, sb)
	}
	for _, sb := range subs {
		if err := r.shards[sb.shard].PrevalidateBatchCtx(ctx, sb.ops); err != nil {
			return err
		}
	}
	return r.applyPhase(ctx, "", subs)
}

// applyPhase runs the prevalidated sub-batches. Each shard's sub-batch is
// atomic on that shard (one published version, one log record); after
// prevalidation only log-device failures (or an expiring context) can
// interrupt, in which case the applied prefix is compensated with inverse
// sub-batches — validated through the inverse overlay, so the restore is
// order-insensitive across shards just like the forward batch.
// insName, when non-empty, marks an insert-group batch (InsertBatchCtx
// apply/compensation paths).
func (r *Router) applyPhase(ctx context.Context, insName string, subs []subBatch) error {
	applied := 0
	var failure error
	for i, sb := range subs {
		var err error
		if insName != "" {
			tups := make([]relation.Tuple, len(sb.ops))
			for j, op := range sb.ops {
				tups[j] = op.Tuple
			}
			err = r.shards[sb.shard].InsertBatchCtx(ctx, insName, tups)
		} else {
			err = r.shards[sb.shard].ApplyBatchCtx(ctx, sb.ops)
		}
		if err != nil {
			failure = err
			applied = i
			break
		}
		applied = i + 1
	}
	if failure == nil {
		for _, sb := range subs {
			r.invalidateBatch(sb.ops)
		}
		return nil
	}
	// Compensate the applied prefix under an inverse overlay.
	fwd := r.pending
	inv := newOverlay()
	for _, sb := range subs[:applied] {
		for i, op := range sb.ops {
			m := r.meta[op.Relation]
			switch op.Kind {
			case engine.BatchInsert:
				inv.addDel(op.Relation, m.pkOf(op.Tuple))
			case engine.BatchDelete:
				if sb.old[i] != nil {
					inv.addIns(op.Relation, op.Key.EncodeKey(), sb.old[i])
				}
			case engine.BatchUpdate:
				inv.addDel(op.Relation, m.pkOf(op.Tuple))
				if sb.old[i] != nil {
					inv.addIns(op.Relation, op.Key.EncodeKey(), sb.old[i])
				}
			}
		}
	}
	r.pending = inv
	var comperr error
	for i := applied - 1; i >= 0; i-- {
		sb := subs[i]
		r.m.compensations.Inc()
		if err := r.shards[sb.shard].ApplyBatchCtx(context.Background(), inverseOps(r, sb)); err != nil {
			comperr = err
		}
	}
	r.pending = fwd
	// Applied-and-reverted shards may have seeded probe caches.
	for _, sb := range subs[:applied] {
		r.invalidateBatch(sb.ops)
	}
	if comperr != nil {
		return fmt.Errorf("shard: compensation failed (%v) after cross-shard apply error: %w", comperr, failure)
	}
	return failure
}

// inverseOps builds the inverse of one applied sub-batch, in reverse order.
func inverseOps(r *Router, sb subBatch) []engine.BatchOp {
	out := make([]engine.BatchOp, 0, len(sb.ops))
	for i := len(sb.ops) - 1; i >= 0; i-- {
		op := sb.ops[i]
		m := r.meta[op.Relation]
		switch op.Kind {
		case engine.BatchInsert:
			out = append(out, engine.Del(op.Relation, op.Tuple.Project(m.pkPos)))
		case engine.BatchDelete:
			if sb.old[i] != nil {
				out = append(out, engine.Ins(op.Relation, sb.old[i]))
			}
		case engine.BatchUpdate:
			if sb.old[i] != nil {
				out = append(out, engine.Upd(op.Relation, op.Tuple.Project(m.pkPos), sb.old[i]))
			}
		}
	}
	return out
}

// invalidateBatch drops probe-cache entries falsified by a batch's deletes
// and key-moving updates, before the locks ordering them release.
func (r *Router) invalidateBatch(ops []engine.BatchOp) {
	for _, op := range ops {
		switch op.Kind {
		case engine.BatchDelete:
			r.m.invalidations.Inc()
			r.invalidate(op.Relation, op.Key.EncodeKey())
		case engine.BatchUpdate:
			r.m.invalidations.Inc()
			r.invalidate(op.Relation, op.Key.EncodeKey())
		}
	}
}
