package engine

import (
	"fmt"
	"slices"

	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/state"
)

// This file implements live schema migration and the adopt step it shares
// with recovery and replication. Every whole state the engine adopts — a
// migrated one, a checkpoint, a schema-change record, a shipped snapshot —
// goes decode (decodeState) → bind (bindFor, or newBinding for a migration)
// → check (checkState) → install (installState). Whatever can refuse the
// state runs before install, so a refused state is never half-adopted.
// Recovery alone skips the check of its checkpoint, checking the state it
// arrives at instead.
//
// Live migration swaps the engine to a new schema — typically the merged
// design the online advisor selected — while serving traffic, carrying the
// state across through a caller-supplied transform (the η mapping of a
// MergedScheme). Protocol, all of it under the writer mutex:
//
//  1. Take the writer mutex: no write is in flight and none can start.
//     Pinned readers keep answering on the old design.
//  2. Refuse open transactions and buffered replicated suffixes: a migration
//     must never land inside someone else's atomic unit.
//  3. Bind (full schema validation), map the exported state through
//     transform, and check the mapped state against the NEW schema's
//     complete constraint set (F ∪ I ∪ N) — all BEFORE the commit point, so
//     any failure leaves the engine exactly on the old design.
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
	mapped := stateOf(db.current.Load())
	if transform != nil {
		mapped, err = transform(mapped)
		if err != nil {
			return fmt.Errorf("engine: migrate: mapping state: %w", err)
		}
	}
	if err := db.checkState(ns, mapped); err != nil {
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
	db.installState(b, mapped, lsn)
	db.m.migrations.Inc()
	db.lastFetch.Store("")
	return nil
}

// decodeState parses the schema and state SDL a checkpoint or a
// schema-change record frames into a design and a state under it.
func decodeState(schemaSDL, stateSDL string) (*schema.Schema, *state.DB, error) {
	s, err := sdl.ParseSchema(schemaSDL)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: parsing framed schema: %v", ErrRecovery, err)
	}
	st, err := sdl.ParseState(s, stateSDL)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: parsing framed state: %v", ErrRecovery, err)
	}
	return s, st, nil
}

// bindFor returns the binding a state of design s is adopted under: the
// current one if s prints the same, else a new one, not yet installed.
func (db *DB) bindFor(s *schema.Schema) (*binding, error) {
	if sdl.PrintSchema(s) == sdl.PrintSchema(db.Schema) {
		return db.bind, nil
	}
	b, err := db.newBinding(s)
	if err != nil {
		return nil, fmt.Errorf("%w: binding framed schema: %v", ErrRecovery, err)
	}
	return b, nil
}

// checkState checks a whole state against design s's full constraint set
// (F ∪ I ∪ N). A partition engine holds one hash-slice of every relation, so
// its local state cannot satisfy the cross-relation inclusion dependencies;
// the router re-checks those across shards (shard.Open, shard.Migrate).
func (db *DB) checkState(s *schema.Schema, st *state.DB) error {
	if db.partition {
		sc := *s
		sc.INDs = nil
		s = &sc
	}
	return state.Consistent(s, st)
}

// installState makes b the engine's binding and st its whole state, in one
// version stamped lsn: the single Store is the readers' cutover point. Called
// with the writer mutex held (or during Open), after st's checks.
func (db *DB) installState(b *binding, st *state.DB, lsn uint64) {
	db.install(b)
	db.current.Store(&dbSnapshot{lsn: lsn, tables: versionsOf(b, st), bind: b})
	db.lastPublish.Store(now().UnixNano())
	db.m.publishes.Inc()
	db.m.versionLSN.Set(float64(lsn))
}

// versionsOf builds the table versions of st under binding b over b's empty
// version zero, with one index editor for the entire state.
func versionsOf(b *binding, st *state.DB) []*tableVersion {
	tx := &writeTx{snap: &dbSnapshot{tables: emptyVersions(b), bind: b}}
	out := make([]*tableVersion, len(b.ordered))
	for _, t := range b.ordered {
		wt := tx.stage(t)
		if r := st.Relation(t.name); r != nil {
			if !slices.Equal(r.Attrs(), t.hdr.Attrs()) {
				r = r.Project(t.hdr.Attrs())
			}
			for _, tup := range r.Tuples() {
				tx.apply(t, tup, tx.keyOf(t, tup))
			}
		}
		out[t.ord] = wt.freeze()
	}
	return out
}
