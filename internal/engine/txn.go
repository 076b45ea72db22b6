package engine

import (
	"fmt"

	"repro/internal/relation"
)

// undoOp reverses one physical mutation.
type undoOp struct {
	table  *table
	tuple  relation.Tuple
	insert bool // true: the mutation was an apply (undo = remove)
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

// commitEffects finishes a successful operation, with the writer mutex held:
// its mutations are logged to the write-ahead log (one record per operation,
// durable.go), the staged table versions are published under the record's
// LSN — the single point where the operation becomes visible to readers —
// and, inside a transaction, the effects are appended to the undo log. A
// non-nil error means the record is not on disk and nothing was published:
// memory and log stay in agreement with no revert needed.
func (db *DB) commitEffects(tx *writeTx, eff effects) error {
	if len(eff) == 0 {
		return nil
	}
	inTxn := db.InTxn()
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

// Begin starts a transaction: subsequent mutations are recorded in an undo
// log until Commit or Rollback, and the current published version is pinned
// as the transaction's consistent read view (TxnView). Transactions do not
// nest. This mirrors the trigger semantics of the SYBASE DDL the ddl package
// emits — a constraint violation inside a batch can ROLLBACK TRANSACTION the
// whole batch.
//
// The transaction records mutations from any goroutine, but the usual
// pattern is one goroutine driving the transaction; concurrent operations
// racing with Begin/Rollback are applied either inside or outside the
// transaction, never half-way.
func (db *DB) Begin() error {
	db.lockWriter()
	defer db.wmu.Unlock()
	if db.InTxn() {
		return fmt.Errorf("engine: transaction already open")
	}
	// Log the marker before opening the transaction: if the log refuses it,
	// no transaction starts and memory stays in step with the durable log.
	if _, err := db.logMarker(walRecBegin); err != nil {
		return err
	}
	db.undo = db.undo[:0]
	db.txn.Store(db.current.Load())
	return nil
}

// Commit ends the transaction, keeping its effects. If the commit marker
// cannot be made durable the transaction STAYS OPEN and an error is
// returned: recovery would discard the unmarked suffix, so the caller must
// Rollback (restoring agreement between memory and log) and reopen the
// engine.
func (db *DB) Commit() error {
	db.lockWriter()
	defer db.wmu.Unlock()
	if !db.InTxn() {
		return fmt.Errorf("engine: no open transaction")
	}
	if _, err := db.logMarker(walRecCommit); err != nil {
		return err
	}
	db.txn.Store(nil)
	db.undo = nil
	return nil
}

// Rollback ends the transaction, reversing every mutation it made, most
// recent first. The reversal is staged copy-on-write and published as ONE
// new version: concurrent lock-free readers see the pre-rollback state or
// the restored state, never an intermediate.
//
// The no-transaction case returns before taking the writer mutex: honest
// callers hit it only on bugs, but begin/rollback wrappers probe it under
// contention, and stalling behind every concurrent writer just to report an
// error was a measurable regression (see TestRollbackNoTxnConcurrent*).
func (db *DB) Rollback() error {
	if !db.InTxn() {
		return fmt.Errorf("engine: no open transaction")
	}
	db.lockWriter()
	defer db.wmu.Unlock()
	// Re-check under the mutex: the transaction may have closed while this
	// call was queued (the fast path above is advisory only).
	if !db.InTxn() {
		return fmt.Errorf("engine: no open transaction")
	}
	db.txn.Store(nil)
	tx := db.beginWrite()
	for i := len(db.undo) - 1; i >= 0; i-- {
		op := db.undo[i]
		// Reverse directly through the staged transaction (no logging).
		key := tx.keyOf(op.table, op.tuple)
		if op.insert {
			tx.remove(op.table, op.tuple, key)
		} else {
			tx.apply(op.table, op.tuple, key)
		}
	}
	db.undo = nil
	// Best-effort marker: if the log is crashed the replay discards the
	// unterminated transaction anyway, which equals the rollback just
	// performed, so the rollback itself still succeeded.
	lsn, _ := db.logMarker(walRecRollback)
	if lsn == 0 {
		// No marker LSN (no log, or a crashed one): the stamp comes from seq,
		// which on a durable engine runs far behind the WAL LSNs the earlier
		// versions carry, so it is raised to the version being replaced.
		lsn = max(db.seq.Add(1), tx.snap.lsn)
	}
	db.publish(tx, lsn)
	return nil
}

// InTxn reports whether a transaction is open (lock-free).
func (db *DB) InTxn() bool { return db.txn.Load() != nil }
