// Package engine is a small executable in-memory relational engine used to
// make the paper's motivating claims measurable: a catalog of relations with
// hash indexes on primary keys, insert/delete/update with full constraint
// enforcement, and key-lookup/navigation queries.
//
// Constraint enforcement distinguishes — and separately accounts for — the
// two maintenance regimes of section 5.1:
//
//   - declarative checks: NOT NULL (nulls-not-allowed), PRIMARY KEY
//     uniqueness, and key-based FOREIGN KEY lookups, each an O(1) indexed
//     operation;
//   - procedural (trigger/rule) checks: general null constraints (evaluated
//     per modified tuple) and non-key-based inclusion dependencies (probing
//     a secondary index on the referenced side, prebuilt at Open).
//
// The cost counters (StatsTotals) let benchmarks report exactly how much each
// regime costs, reproducing the paper's argument for why only-NNA schemas
// (Prop. 5.2) are preferable on 1992-era systems.
//
// Concurrency — MVCC snapshot reads, one writer: the committed state lives in
// immutable versioned snapshots (version.go). Readers (GetByKeyCtx, Scan,
// FetchWithReferences, View) pin the current version with one atomic pointer
// load and run entirely lock-free; writers never block them. Every mutating
// entry point holds the one writer mutex (DB.wmu) from its cancellation
// re-check to its publish, stages its mutations copy-on-write, and publishes
// one new version per committed operation, stamped with its WAL LSN — so log
// order is publish order. All cost accounting is atomic and never takes a
// lock.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/immap"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/wal"
)

// table is the immutable per-relation metadata: scheme, positional layout,
// and the write plan compiled from the schema (plan.go). Contents live in
// versioned snapshots (version.go).
type table struct {
	// ord is the table's position in the binding's name order: its index in
	// dbSnapshot.tables.
	ord   int
	name  string
	rs    *schema.RelationScheme
	pkPos []int
	// prog is the table's entry in the design's constraint program: header,
	// NNA positions, procedural null constraints (NNA excluded).
	prog *schema.RelCheck
	// out/in are the inclusion dependencies from and into this table, each in
	// schema order.
	out, in []*indPlan
	// sec maps a secondary-index slot to the positions it projects. The set
	// is fixed at binding time (compilePlans) and every published version
	// carries one index per slot.
	sec [][]int
}

// binding bundles every schema-derived structure of the engine: the schema
// itself, the table catalog with each table's write plan, and the co-access
// edge counters. A binding is immutable once built; a live schema migration
// (migrate.go) builds a fresh binding and installs it wholesale under the
// writer mutex, and every published snapshot carries the binding it was
// produced under, so a pinned read view keeps resolving names, indexes, and
// dependencies against the design it was pinned on — even across a migration.
type binding struct {
	schema *schema.Schema
	// sdl is schema printed once: the design checkpoints and schema-change
	// records are framed with, and what a framed design is compared against.
	sdl string
	// prog is the design's compiled F ∪ I ∪ N (write plans, checkState).
	prog   *schema.Program
	tables map[string]*table
	// ordered lists the tables by ordinal (name order).
	ordered []*table
	// coEdges holds one co-access counter per inclusion-dependency edge
	// Left->Right; coPairs resolves an (A fetched, then B fetched) relation
	// pair to its edge, in either direction. Fed from the lock-free fetch
	// path, read by the online advisor (coaccess.go).
	coEdges []*coEdge
	coPairs map[string]*coEdge
}

// DB is the engine instance: a schema plus its tables and counters.
// All exported methods are safe for concurrent use; see the package comment
// for the locking discipline.
type DB struct {
	Schema *schema.Schema
	// reg/obsName/m are the registry, the db=<name> label and the series
	// handles the cost counters live in (metrics.go); all atomic, so reads
	// never block operations and operations never block on stats.
	reg     *obs.Registry
	obsName string
	m       *dbMetrics
	// wmu is the writer mutex: every mutating entry point — single ops,
	// batches, Begin/Commit/Rollback, Checkpoint, MigrateSchema, the
	// replication ingest — holds it from its cancellation re-check to its
	// publish (lockWriter). It guards Schema, bind, undo and replPending, and
	// makes the holder the only publisher. Readers never take it: they resolve
	// metadata through the binding carried by their pinned snapshot.
	wmu sync.Mutex
	// bind is the current schema binding; replaced only by install.
	bind *binding
	// current is the latest published snapshot (version.go): the single
	// atomic load every reader pins. seq issues version stamps for non-durable
	// engines; lastPublish feeds the version-age gauge.
	current     atomic.Pointer[dbSnapshot]
	seq         atomic.Uint64
	lastPublish atomic.Int64
	// lastFetch is the relation name of the most recent key-shaped fetch, the
	// co-access pair detector's one-deep history (coaccess.go).
	lastFetch atomic.Value
	// txn is the version pinned when the open transaction began, nil when none
	// is open (txn.go); undo is that transaction's undo log.
	txn  atomic.Pointer[dbSnapshot]
	undo []undoOp
	// wal is the write-ahead log (durable.go); nil for an in-memory engine.
	// Assigned once during Open (after recovery) and immutable afterwards.
	wal      *wal.Log
	recovery RecoveryInfo
	// replPending buffers a shipped transaction's ops until its commit marker
	// arrives (replica.go). Recovery seeds it: a follower restarted
	// mid-transaction resumes the buffer instead of losing the suffix the
	// primary will never resend.
	replPending []walOp
	// replica marks an engine opened with AsReplica: its log's unterminated
	// transactional suffix is resumable (the primary's commit marker is still
	// in flight), so recovery seeds replPending from it and Checkpoint
	// refuses while it is non-empty. A primary discards such a suffix — its
	// transaction died with the crash and no marker can ever arrive.
	replica bool
	// partition marks the engine as one shard of a partitioned database;
	// probes holds the router's cross-partition constraint hooks
	// (partition.go). Installed once via SetShardProbes before traffic.
	partition bool
	probes    atomic.Pointer[ShardProbes]
	// probeKey is the buffer a probe key is handed to the hooks in; written
	// only under the writer mutex.
	probeKey []byte
}

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	reg       *obs.Registry
	name      string
	walDir    string
	walOpts   wal.Options
	partition bool
	replica   bool
}

// WithRegistry makes the DB report its cost counters and latency histograms
// into r instead of a private registry, letting several engines share one
// observable surface (each under its own db=<name> label).
func WithRegistry(r *obs.Registry) Option {
	return func(c *openConfig) { c.reg = r }
}

// WithName sets the db=<name> label value of the DB's metric series.
// The default is "db".
func WithName(name string) Option {
	return func(c *openConfig) { c.name = name }
}

// Open builds an engine for the schema (validated first).
func Open(s *schema.Schema, opts ...Option) (*DB, error) {
	cfg := openConfig{name: "db"}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = obs.NewRegistry()
	}
	db := &DB{
		reg:       cfg.reg,
		obsName:   cfg.name,
		m:         newDBMetrics(cfg.reg, cfg.name),
		partition: cfg.partition,
		replica:   cfg.replica,
	}
	b, err := db.newBinding(s)
	if err != nil {
		return nil, err
	}
	db.install(b)
	// Version zero: every table empty, LSN 0.
	db.current.Store(&dbSnapshot{tables: emptyVersions(b), bind: b})
	db.lastPublish.Store(time.Now().UnixNano())
	db.m.registerVersionAge(cfg.reg, cfg.name, db)
	if cfg.walDir != "" {
		if err := db.openDurable(cfg.walDir, cfg.walOpts); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// newBinding validates s and builds the full set of schema-derived
// structures: the table catalog in name order, every table's write plan and
// secondary-index set (plan.go), and the co-access edge counters. It mutates
// nothing on db — the caller decides when (and whether) to install the
// binding.
func (db *DB) newBinding(s *schema.Schema) (*binding, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// F is enforced as primary-key uniqueness: key dependencies only.
	for _, fd := range s.FDs {
		if !schema.SubsetOf(s.Scheme(fd.Scheme).PrimaryKey, fd.LHS) {
			return nil, fmt.Errorf("%w: %s", ErrNonKeyFD, fd)
		}
	}
	prog, err := schema.Compile(s)
	if err != nil {
		return nil, err
	}
	b := &binding{schema: s, sdl: sdl.PrintSchema(s), prog: prog, tables: make(map[string]*table, len(s.Relations))}
	for _, rs := range s.Relations {
		rc := prog.Rel(rs.Name)
		t := &table{name: rs.Name, rs: rs, pkPos: rc.Hdr.Positions(rs.PrimaryKey), prog: rc}
		b.tables[rs.Name] = t
		b.ordered = append(b.ordered, t)
	}
	sort.Slice(b.ordered, func(i, j int) bool { return b.ordered[i].name < b.ordered[j].name })
	for i, t := range b.ordered {
		t.ord = i
	}
	if err := b.compilePlans(); err != nil {
		return nil, err
	}
	buildCoEdges(b)
	return b, nil
}

// install makes b the engine's current binding. Called from Open (before any
// concurrency) and from migration paths holding the writer mutex.
func (db *DB) install(b *binding) {
	db.Schema = b.schema
	db.bind = b
}

// lockWriter takes the writer mutex. The acquisition is counted before it
// blocks, so a zero delta of the counter over a phase proves the phase took
// no lock, and a moved counter shows a contender queued behind the holder.
func (db *DB) lockWriter() {
	db.m.lockAcquisitions.Inc()
	db.wmu.Lock()
}

// lockWriterCtx is lockWriter for an operation that can be cancelled: a
// context that ended while the operation was queued behind another writer
// must not still commit, so it is checked again once the mutex is held. On
// error the mutex is not held.
func (db *DB) lockWriterCtx(ctx context.Context) error {
	db.lockWriter()
	if err := ctx.Err(); err != nil {
		db.wmu.Unlock()
		return err
	}
	return nil
}

// emptyVersions builds the version-zero table set of a binding: every table
// empty, every secondary index present.
func emptyVersions(b *binding) []*tableVersion {
	tables := make([]*tableVersion, len(b.ordered))
	for i, t := range b.ordered {
		tv := &tableVersion{pk: immap.New[relation.Tuple](), sec: make([]*immap.Map[uint32], len(t.sec))}
		for slot := range tv.sec {
			tv.sec[slot] = immap.New[uint32]()
		}
		tables[i] = tv
	}
	return tables
}

// MustOpen is Open that panics on error.
func MustOpen(s *schema.Schema, opts ...Option) *DB {
	db, err := Open(s, opts...)
	if err != nil {
		panic(err)
	}
	return db
}

// Relation materializes the named relation from the current published
// version: a point-in-time copy, consistent across its tuples, that later
// writes never alter. Mutating the copy does not affect the database. For
// positional metadata only (Position, Attrs, Arity), Header is cheaper.
func (db *DB) Relation(name string) *relation.Relation {
	snap := db.current.Load()
	t := snap.bind.tables[name]
	if t == nil {
		return nil
	}
	r := relation.New(t.prog.Hdr.Attrs()...)
	snap.tables[t.ord].pk.Range(func(_ string, tup relation.Tuple) bool {
		r.Add(tup)
		return true
	})
	return r
}

// Header returns the named relation's shared positional metadata: an empty,
// immutable relation over its attributes (Position/Positions/Attrs/Arity).
// Callers must not add tuples to it.
func (db *DB) Header(name string) *relation.Relation {
	t := db.current.Load().bind.tables[name]
	if t == nil {
		return nil
	}
	return t.prog.Hdr
}

// Count returns the tuple count of a relation in the current published
// version (lock-free).
func (db *DB) Count(name string) int {
	return db.current.Load().count(name)
}

// InsertCtx adds a tuple to the named relation, enforcing all constraints. On
// violation the state is unchanged and a descriptive error is returned. A
// context already cancelled when the operation starts aborts it before any
// state change.
func (db *DB) InsertCtx(ctx context.Context, name string, tup relation.Tuple) error {
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
	defer db.m.insertLat.ObserveSince(start)
	tx := db.beginWrite()
	var eff effects
	if err := db.insertOne(tx, t, tup, &eff); err != nil {
		return err
	}
	return db.commitEffects(tx, eff)
}

// insertOne is insertLocked for a tuple nobody has looked at yet: it checks
// the arity and encodes the primary key.
func (db *DB) insertOne(tx *writeTx, t *table, tup relation.Tuple, eff *effects) error {
	if len(tup) != len(t.rs.Attrs) {
		return fmt.Errorf("%w for %s", ErrArityMismatch, t.name)
	}
	return db.insertLocked(tx, t, tup, tx.keyOf(t, tup), eff)
}

// insertLocked validates and stages one tuple of t's arity under its encoded
// primary key (encoded once by the caller and carried to the index), with the
// writer mutex held. Mutations are staged in tx and recorded in eff; on error
// the caller simply drops tx (the published state was never touched).
func (db *DB) insertLocked(tx *writeTx, t *table, tup relation.Tuple, key string, eff *effects) error {
	if err := db.checkDeclarative(tx, t, tup, key); err != nil {
		return err
	}
	if err := db.fireInsertTriggers(tx, t, tup); err != nil {
		return err
	}
	eff.apply(tx, t, tup, key)
	db.countInsert()
	return nil
}

// checkDeclarative runs the NOT NULL / PRIMARY KEY / key-based FOREIGN KEY
// checks for an incoming tuple against the transaction's staged view.
func (db *DB) checkDeclarative(tx *writeTx, t *table, tup relation.Tuple, key string) error {
	// NOT NULL: one check per attribute, in attribute order, up to and
	// including the first violating one.
	for _, p := range t.prog.NNA {
		if tup[p].IsNull() {
			db.countDecl(p + 1)
			return db.violation(&ConstraintViolation{Kind: NotNullViolation, Relation: t.name, Attr: t.rs.Attrs[p].Name, Op: "insert"})
		}
	}
	// PRIMARY KEY uniqueness (all nulls identical, per section 5.1).
	db.countDecl(len(tup) + 1)
	db.countIdx()
	if _, dup := tx.pkGet(t, key); dup {
		return db.violation(&ConstraintViolation{Kind: PrimaryKeyViolation, Relation: t.name, Op: "insert"})
	}
	// Key-based foreign keys: indexed probe into the referenced table. A
	// local miss on a partition engine falls through to the router's
	// cross-shard probe (partition.go) before it counts as a violation.
	for _, ip := range t.out {
		if !ip.KeyBased {
			continue // handled by triggers
		}
		db.countDecl(1)
		if !tup.TotalAt(ip.ProbePos) {
			continue // null foreign keys are exempt
		}
		db.countIdx()
		fk := tup.AppendKeyAt(tx.kb[:0], ip.ProbePos)
		if tx.pkHas(ip.right, fk) {
			continue
		}
		if err := db.referencedElsewhere(ip, fk, t.name); err != nil {
			return err
		}
	}
	return nil
}

// fireInsertTriggers runs the procedural checks: general null constraints of
// the scheme (single-tuple, so evaluated on the incoming tuple alone) and
// non-key-based inclusion dependencies from the scheme (a probe of the
// referenced relation's prebuilt secondary index).
func (db *DB) fireInsertTriggers(tx *writeTx, t *table, tup relation.Tuple) error {
	for i := range t.prog.Nulls {
		db.countTrig()
		if nc := &t.prog.Nulls[i]; !nc.OK(tup) {
			return db.violation(&ConstraintViolation{Kind: NullConstraintViolation, Relation: t.name, Constraint: nc.Text, Op: "insert"})
		}
	}
	for _, ip := range t.out {
		if ip.KeyBased {
			continue
		}
		db.countTrig()
		if !tup.TotalAt(ip.ProbePos) {
			continue
		}
		db.countIdx()
		fk := tup.AppendKeyAt(tx.kb[:0], ip.ProbePos)
		if tx.carries(ip.right, ip.rightSlot, fk) {
			continue
		}
		if err := db.referencedElsewhere(ip, fk, t.name); err != nil {
			return err
		}
	}
	return nil
}

// referencedElsewhere settles a foreign-key probe that missed the staged
// view: a violation, unless this is a partition engine and the router finds
// the referenced tuple on another shard.
func (db *DB) referencedElsewhere(ip *indPlan, fk []byte, name string) error {
	if !db.probeReferenced(ip, fk) {
		return db.violation(&ConstraintViolation{Kind: ForeignKeyViolation, Relation: name, Constraint: ip.Text, Op: "insert"})
	}
	return nil
}
