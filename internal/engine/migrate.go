package engine

import (
	"fmt"
	"slices"

	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/state"
)

// This file implements live schema migration: the engine swaps to a new
// schema — typically the merged design the online advisor selected — while
// serving traffic, with the state carried across through a caller-supplied
// transform (the η mapping of a MergedScheme).
//
// Protocol, all of it under the writer mutex:
//
//  1. Take the writer mutex. Every mutating entry point holds it for its
//     duration, so no write is in flight and none can start. Lock-free
//     readers are untouched: a pinned snapshot carries its own binding and
//     keeps answering on the old design.
//  2. Refuse open transactions and buffered replicated suffixes: a migration
//     must never land inside someone else's atomic unit.
//  3. Build the new binding (full schema validation), export the current
//     state, map it through transform, and re-validate the mapped state
//     against the NEW schema's complete constraint set (F ∪ I ∪ N). All of
//     this happens BEFORE the commit point, so any failure leaves the engine
//     exactly on the old design.
//  4. Commit point: ONE WAL schema-change record (walRecSchema) carrying the
//     new schema and the fully mapped state. Crash before it → recovery
//     replays onto the old design; crash after → recovery lands on the new
//     one. Never a mix, and no η re-derivation at recovery time.
//  5. Install the binding and publish the mapped state as one new snapshot.

// MigrateSchema swaps the engine onto schema ns, carrying the current state
// across through transform (which receives a deep-copy export of the current
// state and returns the state to install — e.g. MergedScheme.MapState). The
// swap is atomic for readers (one snapshot publish) and atomic for recovery
// (one WAL record). It refuses to run inside an open transaction or while a
// replicated transaction is buffered.
func (db *DB) MigrateSchema(ns *schema.Schema, transform func(*state.DB) (*state.DB, error)) error {
	db.lockWriter()
	defer db.wmu.Unlock()
	if err := db.refuseOpenUnit("migrate schema"); err != nil {
		return err
	}
	b, err := db.newBinding(ns)
	if err != nil {
		return fmt.Errorf("engine: migrate: %w", err)
	}
	st := stateOf(db.current.Load())
	mapped := st
	if transform != nil {
		mapped, err = transform(st)
		if err != nil {
			return fmt.Errorf("engine: migrate: mapping state: %w", err)
		}
	}
	// Re-validate the mapped state against the new design's full constraint
	// set before committing anything — the same discipline recovery applies.
	// A partition engine holds one hash-slice per relation, so its local
	// state cannot satisfy cross-relation inclusion dependencies on its own;
	// the router re-checks those across shards after every shard migrated.
	valSchema := ns
	if db.partition {
		sc := *ns
		sc.INDs = nil
		valSchema = &sc
	}
	if err := state.Consistent(valSchema, mapped); err != nil {
		return fmt.Errorf("engine: migrate: mapped state fails constraint validation: %w", err)
	}

	// Commit point: one self-contained WAL record. If the log refuses it,
	// nothing was installed and the engine stays on the old design.
	var lsn uint64
	if db.wal != nil {
		lsn, err = db.wal.Commit(encodeSchemaRecord(sdl.PrintSchema(ns), sdl.PrintState(ns, mapped)))
		if err != nil {
			return fmt.Errorf("engine: migrate: logging schema change: %w", err)
		}
	} else {
		lsn = db.seq.Add(1)
	}

	// Install and publish. The mapped versions build over the NEW binding's
	// empty version-zero; the single Store is the readers' cutover point.
	db.install(b)
	db.current.Store(&dbSnapshot{lsn: lsn, tables: db.versionsOf(b, mapped), bind: b})
	db.lastPublish.Store(now().UnixNano())
	db.m.publishes.Inc()
	db.m.migrations.Inc()
	db.m.versionLSN.Set(float64(lsn))
	db.lastFetch.Store("")
	return nil
}

// stateTx stages the whole of st under binding b — every table, over b's
// empty version zero, every index populated — in one write transaction (one
// editor per index for the entire state), without publishing anything. Live
// migration, a shipped schema change and snapshot install build their
// versions through it.
func (db *DB) stateTx(b *binding, st *state.DB) *writeTx {
	tx := &writeTx{snap: &dbSnapshot{tables: emptyVersions(b), bind: b}}
	for _, t := range b.ordered {
		tx.stage(t)
		r := st.Relation(t.name)
		if r == nil {
			continue
		}
		if !slices.Equal(r.Attrs(), t.hdr.Attrs()) {
			r = r.Project(t.hdr.Attrs())
		}
		for _, tup := range r.Tuples() {
			tx.apply(t, tup, tx.keyOf(t, tup))
		}
	}
	return tx
}

// versionsOf builds the immutable table-version set of st under binding b.
func (db *DB) versionsOf(b *binding, st *state.DB) []*tableVersion {
	tx := db.stateTx(b, st)
	out := make([]*tableVersion, len(tx.work))
	for _, wt := range tx.work {
		out[wt.t.ord] = wt.freeze()
	}
	return out
}
