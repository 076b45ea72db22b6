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
// intra-group duplicate keys) so they see the whole group, then stages and
// commits the sub-groups like any cross-shard batch (commitAll).
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
	for _, tup := range tuples {
		sh := 0
		if len(tup) == m.arity {
			sh = r.ownerOf(m, tup)
		}
		perShard[sh] = append(perShard[sh], tup)
	}
	if len(perShard) == 1 {
		r.m.localBatches.Inc()
		r.gmu.RLock()
		defer r.gmu.RUnlock()
		for sh := range perShard {
			return r.shards[sh].InsertBatchCtx(ctx, name, tuples)
		}
	}
	r.m.crossBatches.Inc()
	r.gmu.Lock()
	defer r.gmu.Unlock()
	r.pending = newOverlay()
	defer func() { r.pending = nil }()
	// The engine's group prechecks, over the whole group (a sub-group alone
	// could not see a duplicate split across shards): arity first, then
	// intra-group duplicate primary keys, with the engine's exact errors. The
	// overlay being built is the set of keys seen so far.
	for i, tup := range tuples {
		if len(tup) != m.arity {
			return fmt.Errorf("%w for %s (batch index %d)", engine.ErrArityMismatch, name, i)
		}
		pk := string(m.pkOf(nil, tup))
		if _, dup := r.pending.ins[name][pk]; dup {
			return &engine.ConstraintViolation{Kind: engine.PrimaryKeyViolation, Relation: name, Op: "insert-batch"}
		}
		r.pending.addIns(name, pk, tup)
	}
	subs := make([]subBatch, 0, len(perShard))
	for sh := 0; sh < len(r.shards); sh++ {
		tups := perShard[sh]
		if tups == nil {
			continue
		}
		ops := make([]engine.BatchOp, len(tups))
		for i, tup := range tups {
			ops[i] = engine.Ins(name, tup)
		}
		subs = append(subs, subBatch{shard: sh, ops: ops})
	}
	return r.commitAll(ctx, subs)
}

// ApplyBatchCtx routes a mixed batch. Ops are assigned to shards by primary
// key; an update whose new key hashes to a different shard is decomposed
// into a delete on the old owner and an insert on the new one. A batch
// confined to one shard runs there natively — order-sensitive, with the
// engine's exact semantics — holding the router lock exclusively only if it
// deletes or updates a referenced relation. A batch spanning shards is
// all-or-nothing but validates set-wise, with the whole batch visible
// through the pending overlay (commitAll).
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
	excl := false
	for _, op := range ops {
		m := r.meta[op.Relation]
		switch op.Kind {
		case engine.BatchInsert:
			sh := 0
			if len(op.Tuple) == m.arity {
				sh = r.ownerOf(m, op.Tuple)
			}
			assign(sh, op)
		case engine.BatchDelete:
			excl = excl || m.referenced
			assign(r.keyOwner(op.Key), op)
		case engine.BatchUpdate:
			excl = excl || m.referenced
			src := r.keyOwner(op.Key)
			if len(op.Tuple) != m.arity {
				assign(src, op)
				continue
			}
			dst := r.ownerOf(m, op.Tuple)
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
		r.lockWrite(excl)
		defer r.unlockWrite(excl)
		for sh, sub := range perShard {
			return r.shards[sh].ApplyBatchCtx(ctx, sub)
		}
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
			if op.Kind == engine.BatchDelete || op.Kind == engine.BatchUpdate {
				r.pending.addDel(op.Relation, op.Key.EncodeKey())
				if sb.old[i], _, err = r.shards[sh].GetByKeyCtx(ctx, op.Relation, op.Key); err != nil {
					return err
				}
			}
			if op.Kind != engine.BatchDelete && len(op.Tuple) == m.arity {
				r.pending.addIns(op.Relation, string(m.pkOf(nil, op.Tuple)), op.Tuple)
			}
		}
		subs = append(subs, sb)
	}
	return r.commitAll(ctx, subs)
}

// commitAll stages every sub-batch, in shard order, then commits them in the
// same order, with gmu held exclusively. Each op is checked once, on its own
// shard, with the whole batch visible through the pending overlay; a
// violation anywhere aborts every staged sub-batch before any commits. No
// shard waits on another while staging: probes read published versions
// lock-free. Once all have staged, only a log-device failure can stop a
// commit, and the sub-batches committed before it are compensated.
func (r *Router) commitAll(ctx context.Context, subs []subBatch) error {
	staged := make([]engine.StagedBatch, len(subs))
	defer func() {
		for i := range staged {
			staged[i].Abort()
		}
	}()
	for i, sb := range subs {
		var err error
		if staged[i], err = r.shards[sb.shard].StageBatchCtx(ctx, sb.ops); err != nil {
			return err
		}
	}
	for i := range staged {
		if err := staged[i].Commit(); err != nil {
			return r.compensate(subs[:i], err)
		}
	}
	return nil
}

// compensate undoes the committed sub-batches of a cross-shard batch whose
// commit failed, newest first, with inverse sub-batches validated through
// the inverse overlay, so the restore is order-insensitive across shards
// just like the forward batch.
func (r *Router) compensate(committed []subBatch, failure error) error {
	inv := newOverlay()
	for _, sb := range committed {
		for i, op := range sb.ops {
			m := r.meta[op.Relation]
			if op.Kind != engine.BatchDelete {
				inv.addDel(op.Relation, string(m.pkOf(nil, op.Tuple)))
			}
			if op.Kind != engine.BatchInsert && sb.old[i] != nil {
				inv.addIns(op.Relation, op.Key.EncodeKey(), sb.old[i])
			}
		}
	}
	r.pending = inv
	var comperr error
	for i := len(committed) - 1; i >= 0; i-- {
		sb := committed[i]
		r.m.compensations.Inc()
		if err := r.shards[sb.shard].ApplyBatchCtx(context.Background(), inverseOps(r, sb)); err != nil {
			comperr = err
		}
	}
	if comperr != nil {
		return fmt.Errorf("shard: compensation failed (%v) after cross-shard commit error: %w", comperr, failure)
	}
	return failure
}

// inverseOps builds the inverse of one committed sub-batch, in reverse order.
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
