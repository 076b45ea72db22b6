package engine

import (
	"context"
	"fmt"

	"repro/internal/relation"
	"repro/internal/state"
)

// GetByKeyCtx returns the tuple of the named relation with the given primary
// key value (in primary-key attribute order), or false; an unknown relation
// is a typed error. The lookup pins the current published version with one
// atomic load and takes no locks, so it never contends with writers or other
// readers — and cannot queue behind one, so cancellation is checked once at
// entry.
func (db *DB) GetByKeyCtx(ctx context.Context, name string, key relation.Tuple) (relation.Tuple, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	start := now()
	tup, ok, err := db.getAt(db.current.Load(), name, key)
	if err != nil {
		return nil, false, err
	}
	db.m.lookupLat.ObserveSince(start)
	return tup, ok, nil
}

// Scan visits every tuple of the relation satisfying the predicate,
// accounting each visited tuple. The scan pins one published version and
// never takes a lock: it observes a batch's effects either completely or not
// at all (snapshot semantics — a concurrent ApplyBatchCtx publishing
// mid-scan is invisible), and the callbacks run against immutable data, so
// they may re-enter the DB freely, even with mutations. Mutations made after
// the version was pinned are not visible to the scan. Iteration order is
// unspecified.
func (db *DB) Scan(name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	return db.scanAt(db.current.Load(), name, pred, visit)
}

// DeleteCtx removes the tuple with the given primary key, enforcing
// referential integrity on the referenced side: any inclusion dependency
// pointing at this relation restricts the delete when a referencing tuple
// exists (a trigger-style probe of the referencing relation's prebuilt
// secondary index). A context already cancelled when the operation starts
// aborts it before any state change.
func (db *DB) DeleteCtx(ctx context.Context, name string, key relation.Tuple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := now()
	if err := db.lockWriterCtx(ctx); err != nil {
		return err
	}
	defer db.wmu.Unlock()
	t := db.bind.tables[name]
	if t == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	defer db.m.deleteLat.ObserveSince(start)
	tx := db.beginWrite()
	var eff effects
	if err := db.deleteLocked(tx, t, key, &eff); err != nil {
		return err
	}
	return db.commitEffects(tx, eff)
}

// deleteLocked checks and stages one delete, with the writer mutex held.
func (db *DB) deleteLocked(tx *writeTx, t *table, key relation.Tuple, eff *effects) error {
	ks := string(key.AppendKey(tx.kb[:0]))
	tup, ok := tx.pkGet(t, ks)
	if !ok {
		return fmt.Errorf("%w: no %s tuple with key %v", ErrNoSuchTuple, t.name, key)
	}
	for _, ip := range t.in {
		db.countTrig()
		if !tup.TotalAt(ip.RightPos) {
			continue
		}
		db.countIdx()
		if err := db.restrict(tx, ip, tup, "delete"); err != nil {
			return err
		}
	}
	eff.remove(tx, t, tup, ks)
	db.countDelete()
	return nil
}

// restrict refuses to let the value tup carries on the referenced side of ip
// vanish while a referencing tuple holds it. An empty local answer is not
// authoritative on a partition engine: a referencing tuple may live in
// another shard.
func (db *DB) restrict(tx *writeTx, ip *indPlan, tup relation.Tuple, op string) error {
	ref := tup.AppendKeyAt(tx.kb[:0], ip.RightPos)
	if tx.references(ip, ref) || db.probeReferencing(ip, ref) {
		return db.violation(&ConstraintViolation{Kind: RestrictViolation, Relation: ip.right.name, Constraint: ip.Text, Op: op})
	}
	return nil
}

// UpdateCtx replaces the tuple with the given primary key by the new tuple
// (which may change the key), enforcing the same constraints as
// delete+insert without intermediate visibility. A context already cancelled
// when the operation starts aborts it before any state change.
func (db *DB) UpdateCtx(ctx context.Context, name string, key relation.Tuple, newTup relation.Tuple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := now()
	if err := db.lockWriterCtx(ctx); err != nil {
		return err
	}
	defer db.wmu.Unlock()
	t := db.bind.tables[name]
	if t == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	defer db.m.updateLat.ObserveSince(start)
	tx := db.beginWrite()
	var eff effects
	if err := db.updateLocked(tx, t, key, newTup, &eff); err != nil {
		return err
	}
	return db.commitEffects(tx, eff)
}

// updateLocked checks and stages one update, with the writer mutex held. The
// old tuple's staged removal precedes the checks, so the new tuple validates
// against a view without it (a key-preserving update cannot trip the PK check
// on its own old row); a violation drops the whole staged transaction.
func (db *DB) updateLocked(tx *writeTx, t *table, key, newTup relation.Tuple, eff *effects) error {
	if len(newTup) != len(t.rs.Attrs) {
		return fmt.Errorf("%w for %s", ErrArityMismatch, t.name)
	}
	ks := string(key.AppendKey(tx.kb[:0]))
	old, ok := tx.pkGet(t, ks)
	if !ok {
		return fmt.Errorf("%w: no %s tuple with key %v", ErrNoSuchTuple, t.name, key)
	}
	eff.remove(tx, t, old, ks)
	// A key-preserving update stores the new tuple under the old key string.
	if !old.IdenticalAt(newTup, t.pkPos) {
		ks = tx.keyOf(t, newTup)
	}
	if err := db.checkDeclarative(tx, t, newTup, ks); err != nil {
		return err
	}
	if err := db.fireInsertTriggers(tx, t, newTup); err != nil {
		return err
	}
	// Referenced-side integrity for the vanishing old values.
	for _, ip := range t.in {
		db.countTrig()
		if !old.TotalAt(ip.RightPos) || old.IdenticalAt(newTup, ip.RightPos) {
			continue
		}
		db.countIdx()
		if err := db.restrict(tx, ip, old, "update"); err != nil {
			return err
		}
	}
	eff.apply(tx, t, newTup, ks)
	db.countUpdate()
	return nil
}

// LoadCtx bulk-inserts a consistent database state, relation by relation in
// an order that respects inclusion dependencies (state.DB.Replay). Each
// relation loads as one atomic batch (InsertBatchCtx, which takes the writer
// mutex itself): a violation drops the offending relation's batch and stops
// the load at a relation boundary, as does a cancelled context.
func (db *DB) LoadCtx(ctx context.Context, st *state.DB) error {
	return st.Replay(ctx, db.current.Load().bind.schema, db.InsertBatchCtx)
}

// Snapshot exports the current contents as a state.DB (deep copy). It pins
// one published version, so it is consistent across relations without
// taking any lock — a snapshot taken mid-batch contains either all of the
// batch or none of it.
func (db *DB) Snapshot() *state.DB {
	return stateOf(db.current.Load())
}

// stateOf materializes one pinned version as a state.DB (deep copy). Names
// and headers resolve through the snapshot's own binding, so the export is
// correct even for a version pinned before a live schema migration.
func stateOf(snap *dbSnapshot) *state.DB {
	tables := snap.bind.tables
	out := &state.DB{Relations: make(map[string]*relation.Relation, len(tables))}
	for name, t := range tables {
		r := relation.New(t.prog.Hdr.Attrs()...)
		snap.tables[t.ord].pk.Range(func(_ string, tup relation.Tuple) bool {
			r.Add(tup.Clone())
			return true
		})
		out.Set(name, r)
	}
	return out
}
