package engine

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/schema"
)

// This file implements live schema migration and the adopt step it shares
// with recovery and replication. Every whole state the engine adopts goes
// one way: decode (adopt) or map (migrate) its rows into an unpublished
// version (build, which refuses a second row under one primary key), fold
// (checkState), then install (installState). Whatever can refuse a state
// runs before install, so a refused state is never half-adopted.
//
// A migration is named by a merge spec (core.Spec): Def. 4.1 fixes the
// merged design and η once the spec is, so the spec and the state at the
// migration's LSN determine the migrated state. Under the writer mutex,
// migrate derives the merge on the CURRENT design, maps the current state
// through its η, builds it and folds F ∪ I ∪ N over it, refusing inside an
// open transaction and when the spec no longer resolves. The commit point is
// ONE schema-change record (walRecMigrate): the new schema's SDL, the spec
// and a digest of the mapped state. Crash before it → recovery replays onto
// the old design; crash after → recovery re-runs migrate on the state
// replayed up to the record and adopts the result only if schema and digest
// match. The install is one publish; pinned readers keep the design they
// pinned.

// MigrateSchema swaps the engine onto the design spec derives on the current
// one, carrying the state across through the merge's η: atomic for readers
// (one publish) and for recovery (one WAL record).
func (db *DB) MigrateSchema(spec core.Spec) error {
	s, err := db.StageMigration(spec)
	if err != nil {
		return err
	}
	return s.Commit()
}

// StagedMigration is a migration staged up to its commit point. It holds the
// engine's writer mutex until Commit or Abort releases it.
type StagedMigration struct {
	db   *DB // nil once released
	spec core.Spec
	snap *dbSnapshot // the new design and the mapped state, not yet stamped
}

// StageMigration runs MigrateSchema up to its commit point, keeping the
// writer mutex for the caller's Commit or Abort (the router stages all shards
// before it commits any).
func (db *DB) StageMigration(spec core.Spec) (StagedMigration, error) {
	db.lockWriter()
	snap, err := db.migrate(spec)
	if err != nil {
		db.wmu.Unlock()
		return StagedMigration{}, fmt.Errorf("engine: migrate: %w", err)
	}
	return StagedMigration{db: db, spec: spec, snap: snap}, nil
}

// Schema returns the design the staged migration installs.
func (s *StagedMigration) Schema() *schema.Schema { return s.snap.bind.schema }

// View reads the staged design and state before they are installed.
func (s *StagedMigration) View() *View { return &View{db: s.db, snap: s.snap} }

// Commit logs the migration record, installs the staged design and state and
// releases the writer mutex. An error means the log refused the record and
// the old design stands. Commit on a released migration does nothing.
func (s *StagedMigration) Commit() error {
	if s.db == nil {
		return nil
	}
	db := s.db
	s.db = nil
	defer db.wmu.Unlock()
	var lsn uint64
	if db.wal != nil {
		var err error
		rec := encodeMigrationRecord(s.snap.bind.sdl, s.spec, digestOf(s.snap))
		if lsn, err = db.wal.Commit(rec); err != nil {
			return fmt.Errorf("engine: migrate: logging schema change: %w", err)
		}
	} else {
		lsn = db.seq.Add(1)
	}
	db.installState(s.snap, lsn)
	db.m.migrations.Inc()
	db.lastFetch.Store("")
	return nil
}

// Abort drops the staged migration and releases the writer mutex. It does
// nothing after Commit, so a caller may defer it unconditionally.
func (s *StagedMigration) Abort() {
	if s.db != nil {
		s.db.wmu.Unlock()
		s.db = nil
	}
}

// migrate is the one state mapping of live, staged and replayed migrations:
// the design spec derives on the current one and the current state mapped
// through its η and checked, as an unpublished version. It changes nothing,
// and refuses to run inside someone else's atomic unit.
func (db *DB) migrate(spec core.Spec) (*dbSnapshot, error) {
	if err := db.refuseOpenUnit("migrate schema"); err != nil {
		return nil, err
	}
	cur := db.current.Load()
	m, err := spec.Derive(cur.bind.schema)
	if err != nil {
		return nil, fmt.Errorf("deriving merge %s on the current design: %w", spec.Name, err)
	}
	b, err := db.newBinding(m.Schema)
	if err != nil {
		return nil, err
	}
	snap, err := db.build(b, func(tx *writeTx) error { return mapVersion(tx, cur, m) })
	if err != nil {
		return nil, fmt.Errorf("mapped state fails constraint validation: %w", err)
	}
	return snap, nil
}

// mapVersion stages η of the pinned version cur into tx: each driver key's
// member tuples (a member's key encodes as Km does) make one merged row.
// Every other table is re-staged from cur's rows, immutable and so shared.
func mapVersion(tx *writeTx, cur *dbSnapshot, m *core.MergedScheme) error {
	mp, merged := m.Mapping(), tx.snap.bind.tables[m.Name]
	members := make([]*tableVersion, len(m.Members))
	for i, mb := range m.Members {
		members[i] = cur.tables[cur.bind.tables[mb.Name].ord]
	}
	for _, t := range tx.snap.bind.ordered {
		if t != merged {
			cur.tables[cur.bind.tables[t.name].ord].pk.Range(func(key string, tup relation.Tuple) bool {
				tx.apply(t, tup, key)
				return true
			})
		}
	}
	parts := make([]relation.Tuple, len(members))
	var err error
	for d := 0; d < len(mp.Drivers) && err == nil; d++ {
		members[mp.Drivers[d]].pk.Range(func(key string, _ relation.Tuple) bool {
			if _, done := tx.pkGet(merged, key); done {
				return true // a synthetic key another driver staged
			}
			for i, v := range members {
				parts[i], _ = v.pk.Get(key)
			}
			err = tx.load(merged, mp.Eta(parts))
			return err == nil
		})
	}
	return err
}

// checkState folds the design's program (F ∪ I ∪ N) over a built version. A
// partition engine holds a hash-slice of every relation, so it folds the row
// half alone; the router folds the IND half across shards.
func (db *DB) checkState(snap *dbSnapshot) error {
	rows := Rows(&View{snap: snap})
	if db.partition {
		return snap.bind.prog.CheckRows(rows)
	}
	return snap.bind.prog.Check(rows)
}

// installState makes snap's binding the engine's and snap its whole state,
// stamped lsn: the single Store is the readers' cutover point. Called with
// the writer mutex held (or during Open), after the state's checks.
func (db *DB) installState(snap *dbSnapshot, lsn uint64) {
	snap.lsn = lsn
	db.install(snap.bind)
	db.current.Store(snap)
	db.lastPublish.Store(now().UnixNano())
	db.m.publishes.Inc()
	db.m.versionLSN.Set(float64(lsn))
}

// build stages a whole state under binding b — fill loads its rows, one
// index editor per index, over b's empty version zero — freezes it as an
// unpublished version and folds the design's constraints over it.
func (db *DB) build(b *binding, fill func(tx *writeTx) error) (*dbSnapshot, error) {
	tx := &writeTx{snap: &dbSnapshot{tables: emptyVersions(b), bind: b}}
	if err := fill(tx); err != nil {
		return nil, err
	}
	out := slices.Clone(tx.snap.tables)
	for _, wt := range tx.work {
		out[wt.t.ord] = wt.freeze()
	}
	snap := &dbSnapshot{tables: out, bind: b}
	return snap, db.checkState(snap)
}

// load stages tup into t, refusing a second row under its primary key.
func (tx *writeTx) load(t *table, tup relation.Tuple) error {
	key := tx.keyOf(t, tup)
	if _, dup := tx.pkGet(t, key); dup {
		return fmt.Errorf("%s holds two rows under one primary key: FD violated: %s", t.name, schema.KeyDependency(t.rs))
	}
	tx.apply(t, tup, key)
	return nil
}
