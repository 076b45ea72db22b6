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
	// Hold the schema read lock for the marker write: a transaction must open
	// entirely on one design — a live migration (which refuses to run while a
	// transaction is open) cannot slip between the inTxn check and the pin.
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if db.inTxn.Load() {
		return fmt.Errorf("engine: transaction already open")
	}
	// Log the marker before opening the transaction: if the log refuses it,
	// no transaction starts and memory stays in step with the durable log.
	if _, err := db.logMarker(walRecBegin); err != nil {
		return err
	}
	db.undo = db.undo[:0]
	db.txnSnap = db.current.Load()
	db.inTxn.Store(true)
	return nil
}

// Commit ends the transaction, keeping its effects. If the commit marker
// cannot be made durable the transaction STAYS OPEN and an error is
// returned: recovery would discard the unmarked suffix, so the caller must
// Rollback (restoring agreement between memory and log) and reopen the
// engine.
func (db *DB) Commit() error {
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if !db.inTxn.Load() {
		return fmt.Errorf("engine: no open transaction")
	}
	if _, err := db.logMarker(walRecCommit); err != nil {
		return err
	}
	db.inTxn.Store(false)
	db.undo = nil
	db.txnSnap = nil
	return nil
}

// Rollback ends the transaction, reversing every mutation it made, most
// recent first. It locks every table for writing (in ordinal order, like any
// other multi-table operation) before touching the log, so in-flight
// operations finish — and log their effects — before the reversal starts.
// The reversal is staged copy-on-write and published as ONE new version:
// concurrent lock-free readers see the pre-rollback state or the restored
// state, never an intermediate.
//
// The no-transaction case returns before acquiring any table lock: honest
// callers hit it only on bugs, but RunAtomic-style wrappers probe it under
// contention, and stalling every concurrent writer just to report an error
// was a measurable regression (see TestRollbackNoTxnConcurrent*).
func (db *DB) Rollback() error {
	if !db.inTxn.Load() {
		return fmt.Errorf("engine: no open transaction")
	}
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	ls := db.lm.allWrite()
	db.acquire(ls)
	defer ls.release()
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	// Re-check under the mutex: the transaction may have closed while the
	// lock set was being acquired (the fast path above is advisory only).
	if !db.inTxn.Load() {
		return fmt.Errorf("engine: no open transaction")
	}
	db.inTxn.Store(false)
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
	reversed := len(db.undo) > 0
	db.undo = nil
	db.txnSnap = nil
	// Best-effort marker: if the log is crashed the replay discards the
	// unterminated transaction anyway, which equals the rollback just
	// performed, so the rollback itself still succeeded.
	lsn, _ := db.logMarker(walRecRollback)
	if reversed {
		if lsn == 0 {
			lsn = db.seq.Add(1)
		}
		db.publish(tx, lsn)
	}
	return nil
}

// InTxn reports whether a transaction is open.
func (db *DB) InTxn() bool { return db.inTxn.Load() }

// RunAtomic executes fn inside a transaction, rolling back if fn returns an
// error and committing otherwise.
func (db *DB) RunAtomic(fn func() error) error {
	if err := db.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		if rbErr := db.Rollback(); rbErr != nil {
			return fmt.Errorf("%w (rollback also failed: %v)", err, rbErr)
		}
		return err
	}
	return db.Commit()
}
