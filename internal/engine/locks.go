package engine

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// This file implements the engine's writer lock manager. The design:
//
//   - One sync.RWMutex per table (the "stripes"): writers on distinct
//     relations never contend. Readers take NO locks at all — they pin an
//     immutable snapshot (version.go); the lock plans exist purely to
//     serialize writers against each other.
//   - Every mutating operation's lock set is known from the schema alone —
//     an insert into R writes R and reads the referenced sides of R's
//     outgoing inclusion dependencies; a delete from R writes R and reads
//     the referencing sides of the dependencies into R — so the sets are
//     precomputed once at Open. Referenced/referencing sides are READ locks:
//     every secondary index is prebuilt at Open, so no operation ever
//     escalates to a write lock just to build one (the pre-MVCC engine did).
//   - Lock sets are sorted by table ordinal (tables sorted by name) and
//     acquired front to back. Two operations always request their common
//     tables in the same order, so multi-table operations cannot deadlock.
//   - A read lock in a WRITE plan means: this operation validates against
//     that table's current version and requires it not to advance before the
//     operation publishes (FK write-skew prevention). It is unrelated to the
//     lock-free read path.
//
// The remaining order rule is table locks BEFORE db.txnMu (see txn.go).

// lockMode is the access mode requested on one table.
type lockMode uint8

const (
	lockRead lockMode = iota + 1
	lockWrite
)

// lockReq is one table lock request.
type lockReq struct {
	t    *table
	mode lockMode
}

// lockSet is a deduplicated lock request list sorted by table ordinal.
// db.acquire / lockSet.release are the only ways operations touch table
// mutexes.
type lockSet []lockReq

// acquire takes every lock of the plan and counts the acquisition: the
// counter's delta over a read-only phase is the observable proof that the
// fetch/scan path is lock-free (DB.LockAcquisitions).
func (db *DB) acquire(ls lockSet) {
	db.lockAcq.Add(1)
	db.m.lockAcquisitions.Inc()
	for _, r := range ls {
		if r.mode == lockWrite {
			r.t.mu.Lock()
		} else {
			r.t.mu.RLock()
		}
	}
}

func (ls lockSet) release() {
	for i := len(ls) - 1; i >= 0; i-- {
		r := ls[i]
		if r.mode == lockWrite {
			r.t.mu.Unlock()
		} else {
			r.t.mu.RUnlock()
		}
	}
}

// lockManager holds the precomputed lock plans, one per (operation kind,
// table). The schema is immutable after Open, so the plans are too.
type lockManager struct {
	ordered []*table // all tables in ordinal (name) order: binding.ordered
	insert  map[string]lockSet
	remove  map[string]lockSet
	update  map[string]lockSet
}

// planBuilder accumulates (table, mode) pairs with write-wins semantics.
type planBuilder map[*table]lockMode

func (b planBuilder) add(t *table, mode lockMode) {
	if have, ok := b[t]; !ok || mode > have {
		b[t] = mode
	}
}

func (b planBuilder) build() lockSet {
	ls := make(lockSet, 0, len(b))
	for t, mode := range b {
		ls = append(ls, lockReq{t: t, mode: mode})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].t.ord < ls[j].t.ord })
	return ls
}

// newLockManager precomputes every plan for one binding (the schema-derived
// structures of one design — a live migration builds a whole new binding
// with its own lock manager).
func newLockManager(b *binding) *lockManager {
	lm := &lockManager{
		ordered: b.ordered,
		insert:  make(map[string]lockSet, len(b.ordered)),
		remove:  make(map[string]lockSet, len(b.ordered)),
		update:  make(map[string]lockSet, len(b.ordered)),
	}
	for _, t := range b.ordered {
		// Insert: write the table itself; hold the referenced sides for
		// reading so their versions cannot advance under the FK probes
		// (key-based or not — every secondary index is prebuilt).
		ins := planBuilder{t: lockWrite}
		for _, ip := range t.out {
			ins.add(ip.right, lockRead)
		}
		lm.insert[t.name] = ins.build()

		// Delete: write the table itself; hold every referencing side for
		// reading under the restrict probes.
		del := planBuilder{t: lockWrite}
		for _, ip := range t.in {
			del.add(ip.left, lockRead)
		}
		lm.remove[t.name] = del.build()

		// Update = delete + insert without intermediate visibility.
		upd := planBuilder{}
		for _, r := range lm.insert[t.name] {
			upd.add(r.t, r.mode)
		}
		for _, r := range lm.remove[t.name] {
			upd.add(r.t, r.mode)
		}
		lm.update[t.name] = upd.build()
	}
	return lm
}

// allRead returns a lock set covering every table for reading (Checkpoint
// quiesces writers with it so the WAL's covered LSN matches the serialized
// state; readers are unaffected).
func (lm *lockManager) allRead() lockSet {
	ls := make(lockSet, len(lm.ordered))
	for i, t := range lm.ordered {
		ls[i] = lockReq{t: t, mode: lockRead}
	}
	return ls
}

// allWrite returns a lock set covering every table for writing (Rollback).
func (lm *lockManager) allWrite() lockSet {
	ls := make(lockSet, len(lm.ordered))
	for i, t := range lm.ordered {
		ls[i] = lockReq{t: t, mode: lockWrite}
	}
	return ls
}

// batchPlan returns the union lock set of a mixed batch, so the whole batch
// runs under one acquisition.
func (db *DB) batchPlan(ops []BatchOp) (lockSet, error) {
	b := planBuilder{}
	for _, op := range ops {
		var plan lockSet
		switch op.Kind {
		case BatchInsert:
			plan = db.lm.insert[op.Relation]
		case BatchDelete:
			plan = db.lm.remove[op.Relation]
		case BatchUpdate:
			plan = db.lm.update[op.Relation]
		default:
			return nil, fmt.Errorf("engine: unknown batch op kind %d", op.Kind)
		}
		if plan == nil {
			return nil, fmt.Errorf("%w %s", ErrUnknownRelation, op.Relation)
		}
		for _, r := range plan {
			b.add(r.t, r.mode)
		}
	}
	return b.build(), nil
}

// effects records the staged mutations of one operation (or one batch): the
// change list that becomes the WAL record and, inside a transaction, the
// undo-log entries. The mutations live only in the writeTx until
// commitEffects publishes them, so a failed operation leaves no trace — its
// writeTx is simply dropped.
type effects []undoOp

// apply stages tup into t under its encoded primary key via tx and records
// the mutation.
func (e *effects) apply(tx *writeTx, t *table, tup relation.Tuple, key string) {
	tx.apply(t, tup, key)
	*e = append(*e, undoOp{table: t, tuple: tup, insert: true})
}

// remove stages the removal of tup, stored under key, from t via tx and
// records the mutation.
func (e *effects) remove(tx *writeTx, t *table, tup relation.Tuple, key string) {
	tx.remove(t, tup, key)
	*e = append(*e, undoOp{table: t, tuple: tup})
}

// commitEffects finishes a successful operation: its mutations are logged to
// the write-ahead log (one record per operation, durable.go), the staged
// table versions are published under the record's LSN — the single point
// where the operation becomes visible to readers — and, inside a
// transaction, the effects are appended to the undo log. Called with table
// locks held; takes txnMu after them, which is the global lock order (never
// the reverse). A non-nil error means the record is not on disk and nothing
// was published: memory and log stay in agreement with no revert needed.
func (db *DB) commitEffects(tx *writeTx, eff effects) error {
	if len(eff) == 0 {
		return nil
	}
	if !db.inTxn.Load() {
		lsn, err := db.logOp(eff, false)
		if err != nil {
			return err
		}
		db.publish(tx, lsn)
		return nil
	}
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	// Re-read under the mutex: a racing Commit/Rollback may have closed the
	// transaction, in which case the effects are logged as autonomous.
	inTxn := db.inTxn.Load()
	lsn, err := db.logOp(eff, inTxn)
	if err != nil {
		return err
	}
	if inTxn {
		db.undo = append(db.undo, eff...)
	}
	db.publish(tx, lsn)
	return nil
}
