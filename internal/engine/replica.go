package engine

import (
	"fmt"

	"repro/internal/wal"
)

// This file is the engine's follower-side replication surface. A follower is
// an ordinary durable engine whose mutations arrive as primary-shipped WAL
// records: IngestReplicated makes each batch durable in the local log FIRST
// (inheriting its gap/duplicate validation), then replays each record through
// replayRecord, the loop recovery runs, so the follower publishes exactly the
// primary's committed versions, stamped with the primary's LSNs.
//
// Shipped bytes come off the network, so a follower checks all it adopts
// before publishing it: a snapshot whole against its design (adopt), a
// schema-change record by re-running it. A refused one leaves the follower on
// its old design and rows. An op record holds effects the primary validated:
// replayOps checks that they fit the design and leave the keys they touch
// consistent, without re-running them.

// IngestReplicated appends a batch of primary-shipped records to the local
// log (duplicates are skipped; a gap refuses the whole batch with wal.ErrGap
// before anything is written) and replays them. A transaction's records
// buffer until its commit marker, which may arrive in a later batch or after
// a follower restart. It returns the follower's durable LSN horizon: the
// resume point for the next fetch.
func (db *DB) IngestReplicated(recs []wal.Record) (uint64, error) {
	if db.wal == nil {
		return 0, ErrNotDurable
	}
	// One acquisition covers the append and every apply: neither a Checkpoint
	// nor a local writer (after a promotion) sees the log ahead of the state.
	db.lockWriter()
	defer db.wmu.Unlock()
	accepted, err := db.wal.CommitShipped(recs)
	if err != nil {
		return db.wal.LSN(), err
	}
	var info RecoveryInfo // RecoveryInfo describes Open alone
	for _, r := range accepted {
		if err := db.replayRecord(r, &info); err != nil {
			return db.wal.LSN(), err
		}
	}
	return db.wal.LSN(), nil
}

// IngestSnapshot bootstraps (or fast-forwards) the follower from a shipped
// checkpoint when the primary reports wal.ErrCompacted: adopted against its
// framed design, made the log's recovery baseline at the primary's LSN
// (wal.Log.InstallSnapshot), then published as the state.
func (db *DB) IngestSnapshot(data []byte, lsn uint64) error {
	if db.wal == nil {
		return ErrNotDurable
	}
	db.lockWriter()
	defer db.wmu.Unlock()
	snap, err := db.adopt(data)
	if err != nil {
		return err
	}
	if err := db.wal.InstallSnapshot(data, lsn); err != nil {
		return fmt.Errorf("engine: installing shipped snapshot: %w", err)
	}
	db.replPending = nil
	db.installState(snap, lsn)
	return nil
}

// ReplRead is the primary-side read half of the shipping loop: the committed
// records after afterLSN plus the commit horizon (wal.Log.ReadCommitted). It
// returns wal.ErrCompacted when the requested position predates the newest
// checkpoint — the caller must ship ReplSnapshot instead.
func (db *DB) ReplRead(afterLSN uint64, maxRecords int) ([]wal.Record, uint64, error) {
	if db.wal == nil {
		return nil, 0, ErrNotDurable
	}
	return db.wal.ReadCommitted(afterLSN, maxRecords)
}

// ReplSnapshot returns the newest checkpoint's verified payload and covered
// LSN for bootstrapping a follower that is behind the compaction horizon.
func (db *DB) ReplSnapshot() ([]byte, uint64, error) {
	if db.wal == nil {
		return nil, 0, ErrNotDurable
	}
	data, lsn, ok, err := db.wal.ReadSnapshot()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("engine: no checkpoint to ship (the log still holds every record)")
	}
	return data, lsn, nil
}

// DurableLSN returns the log's commit horizon: the LSN of the newest durable
// record (0 for a non-durable engine). On a follower this is the applied
// ingest position; on a primary, the newest committed operation.
func (db *DB) DurableLSN() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.LSN()
}
