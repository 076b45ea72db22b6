package engine

import (
	"context"
	"fmt"

	"repro/internal/relation"
)

// BatchKind selects the operation of one BatchOp.
type BatchKind uint8

const (
	// BatchInsert inserts Tuple into Relation.
	BatchInsert BatchKind = iota + 1
	// BatchDelete deletes the tuple with primary key Key from Relation.
	BatchDelete
	// BatchUpdate replaces the tuple with primary key Key by Tuple.
	BatchUpdate
)

// BatchOp is one operation of a mixed batch (see ApplyBatchCtx).
type BatchOp struct {
	Kind     BatchKind
	Relation string
	Key      relation.Tuple // delete/update: primary key of the target tuple
	Tuple    relation.Tuple // insert/update: the (new) tuple
}

// Ins builds an insert batch op.
func Ins(relName string, tup relation.Tuple) BatchOp {
	return BatchOp{Kind: BatchInsert, Relation: relName, Tuple: tup}
}

// Del builds a delete batch op.
func Del(relName string, key relation.Tuple) BatchOp {
	return BatchOp{Kind: BatchDelete, Relation: relName, Key: key}
}

// Upd builds an update batch op.
func Upd(relName string, key, tup relation.Tuple) BatchOp {
	return BatchOp{Kind: BatchUpdate, Relation: relName, Key: key, Tuple: tup}
}

// InsertBatchCtx inserts tuples into the named relation as one atomic group:
// the writer mutex is taken once for the whole batch (amortizing per-op
// locking), constraints are validated group-wise, and a violation anywhere
// drops the whole staged batch. Tuples earlier in the batch are visible to
// the constraint checks of later ones, so self-referencing chains load in
// one batch. Concurrent readers see the batch appear atomically: its staged
// effects publish as ONE new version after the WAL accepts the record.
// Cancellation is checked once up front: the batch is atomic, so there is no
// consistent prefix to abandon at.
func (db *DB) InsertBatchCtx(ctx context.Context, name string, tuples []relation.Tuple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(tuples) == 0 {
		return nil
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
	defer db.m.insertLat.ObserveSince(start)
	// Group-wise validation first: arity and intra-batch primary-key
	// duplicates are detectable before any staging, so the common bad-batch
	// cases fail without staging anything. Each row's key is encoded here,
	// once, and carried to the index. Not counted as
	// declarative checks — the authoritative per-tuple PK check still runs in
	// insertLocked, and counting here too would make a batch of one tuple
	// cost more checks than a plain InsertCtx.
	keys := make([]string, len(tuples))
	seen := make(map[string]struct{}, len(tuples))
	tx := db.beginWrite()
	for i, tup := range tuples {
		if len(tup) != len(t.rs.Attrs) {
			return fmt.Errorf("%w for %s (batch index %d)", ErrArityMismatch, name, i)
		}
		keys[i] = tx.keyOf(t, tup)
		if _, dup := seen[keys[i]]; dup {
			return db.violation(&ConstraintViolation{Kind: PrimaryKeyViolation, Relation: name, Op: "insert-batch"})
		}
		seen[keys[i]] = struct{}{}
	}
	var eff effects
	for i, tup := range tuples {
		if err := db.insertLocked(tx, t, tup, keys[i], &eff); err != nil {
			return fmt.Errorf("engine: batch insert %d/%d into %s: %w", i+1, len(tuples), name, err)
		}
	}
	// The whole batch is one log record (group commit: one write + one fsync)
	// and one published version: readers see all of it or none of it.
	return db.commitEffects(tx, eff)
}

// ApplyBatchCtx applies a mixed batch of inserts, deletes, and updates as
// one atomic group under a single acquisition of the writer mutex. A
// violation anywhere drops the whole staged batch; on success the batch
// publishes as ONE new version, so a concurrent reader — however it
// interleaves with the batch — observes either none or all of its effects,
// never a torn middle.
func (db *DB) ApplyBatchCtx(ctx context.Context, ops []BatchOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ops) == 0 {
		return nil
	}
	if err := db.lockWriterCtx(ctx); err != nil {
		return err
	}
	defer db.wmu.Unlock()
	tx := db.beginWrite()
	var eff effects
	if err := db.stageBatch(tx, ops, &eff); err != nil {
		return err
	}
	return db.commitEffects(tx, eff)
}

// stageBatch checks and stages every op of a mixed batch in tx, with the
// writer mutex held. An unknown relation or op kind anywhere in the batch is
// reported before any op runs.
func (db *DB) stageBatch(tx *writeTx, ops []BatchOp, eff *effects) error {
	for _, op := range ops {
		if op.Kind < BatchInsert || op.Kind > BatchUpdate {
			return fmt.Errorf("engine: unknown batch op kind %d", op.Kind)
		}
		if db.bind.tables[op.Relation] == nil {
			return fmt.Errorf("%w %s", ErrUnknownRelation, op.Relation)
		}
	}
	for i, op := range ops {
		t := db.bind.tables[op.Relation]
		var opErr error
		switch op.Kind {
		case BatchInsert:
			opErr = db.insertOne(tx, t, op.Tuple, eff)
		case BatchDelete:
			opErr = db.deleteLocked(tx, t, op.Key, eff)
		case BatchUpdate:
			opErr = db.updateLocked(tx, t, op.Key, op.Tuple, eff)
		}
		if opErr != nil {
			return fmt.Errorf("engine: batch op %d/%d (%s on %s): %w", i+1, len(ops), op.Kind, op.Relation, opErr)
		}
	}
	return nil
}

// String renders the batch kind for error messages.
func (k BatchKind) String() string {
	switch k {
	case BatchInsert:
		return "insert"
	case BatchDelete:
		return "delete"
	case BatchUpdate:
		return "update"
	}
	return fmt.Sprintf("batchkind(%d)", uint8(k))
}
