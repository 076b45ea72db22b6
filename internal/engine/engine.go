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
// The Stats counters let benchmarks report exactly how much each regime
// costs, reproducing the paper's argument for why only-NNA schemas
// (Prop. 5.2) are preferable on 1992-era systems.
//
// Concurrency — MVCC snapshot reads: the committed state lives in immutable
// versioned snapshots (version.go). Readers (GetByKey, Scan,
// FetchWithReferences, View) pin the current version with one atomic pointer
// load and run entirely lock-free; writers never block them. Writers
// serialize through per-table sync.RWMutex lock plans acquired in a
// deterministic order (locks.go), stage their mutations copy-on-write, and
// publish one new version per committed operation, stamped with its WAL
// LSN. All cost accounting is atomic and never takes a lock.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/immap"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/wal"
)

// table is the immutable per-relation metadata: scheme, positional layout,
// and the set of prebuilt secondary indexes. Contents live in versioned
// snapshots (version.go); the mutex serializes writers of this table (the
// unit of write locking, acquired via the lock plans in locks.go) and is
// never taken by readers.
type table struct {
	mu   sync.RWMutex
	ord  int // position in the deterministic lock order (sorted by name)
	name string
	rs   *schema.RelationScheme
	// hdr is an empty relation over the scheme's attributes: the shared,
	// immutable positional metadata (Position/Positions/Arity) every path
	// uses. Never add tuples to it.
	hdr   *relation.Relation
	pkPos []int
	// secIdx maps a secondary-index key (secondaryKey of the attribute list)
	// to the attribute positions it projects. The set is fixed at Open: one
	// index per referencing side of every inclusion dependency, plus the
	// referenced side of every non-key-based one, so no read-shaped
	// operation ever needs to build an index (the pre-MVCC engine demoted
	// such reads to write locks for exactly that lazy build).
	secIdx map[string][]int
}

// binding bundles every schema-derived structure of the engine: the schema
// itself, the table catalog, the lock plans, the dependency indexes, the
// constraint partitions, and the co-access edge counters. A binding is
// immutable once built; a live schema migration (migrate.go) builds a fresh
// binding and installs it wholesale under schemaMu, and every published
// snapshot carries the binding it was produced under, so a pinned read view
// keeps resolving names, indexes, and dependencies against the design it was
// pinned on — even across a migration.
type binding struct {
	schema *schema.Schema
	tables map[string]*table
	lm     *lockManager
	// indsFrom/indsInto index the schema's inclusion dependencies by side.
	indsFrom map[string][]schema.IND
	indsInto map[string][]schema.IND
	// procedural null constraints per scheme (NNA excluded).
	procNulls map[string][]schema.NullConstraint
	nnaAttrs  map[string]map[string]bool
	// coEdges holds one co-access counter per inclusion-dependency edge
	// (keyed "Left->Right"); coPairs resolves an (A fetched, then B fetched)
	// relation pair to its edge, in either direction. Fed from the lock-free
	// fetch path, read by the online advisor (coaccess.go).
	coEdges map[string]*coEdge
	coPairs map[string]*coEdge
}

// DB is the engine instance: a schema plus its tables and counters.
// All exported methods are safe for concurrent use; see the package comment
// for the locking discipline.
type DB struct {
	Schema *schema.Schema
	// Stats accumulates the cost counters atomically; reads never block
	// operations and operations never block on stats.
	Stats Stats
	// reg/obsName/m back the Stats fields with registry series (metrics.go).
	reg     *obs.Registry
	obsName string
	m       *dbMetrics
	// schemaMu guards the schema-derived structures below (Schema, tables,
	// lm, indsFrom/indsInto, procNulls, nnaAttrs, bind) against live schema
	// migration: every mutating entry point holds it shared for the
	// operation's duration, MigrateSchema holds it exclusive. Lock order:
	// schemaMu before replMu before table locks before txnMu. Lock-free
	// readers never touch it — they resolve metadata through the binding
	// carried by their pinned snapshot.
	schemaMu sync.RWMutex
	// bind is the current schema binding; replaced only by install (under
	// schemaMu exclusive). The mirror fields below alias its contents for the
	// write paths, which already hold schemaMu shared.
	bind *binding
	// tables aliases bind.tables (immutable between migrations).
	tables map[string]*table
	// current is the latest published snapshot (version.go): the single
	// atomic load every reader pins. pubMu serializes publishers; seq issues
	// version stamps for non-durable engines; lastPublish feeds the
	// version-age gauge.
	current     atomic.Pointer[dbSnapshot]
	pubMu       sync.Mutex
	seq         atomic.Uint64
	lastPublish atomic.Int64
	// lm holds the precomputed per-operation lock plans (locks.go).
	lm *lockManager
	// lockAcq counts lock-plan acquisitions for the engine's lifetime (it
	// lives on the DB, not the lock manager, so a migration's fresh lock
	// plans never reset it).
	lockAcq atomic.Uint64
	// indsFrom/indsInto index the schema's inclusion dependencies by side.
	indsFrom map[string][]schema.IND
	indsInto map[string][]schema.IND
	// procedural null constraints per scheme (NNA excluded).
	procNulls map[string][]schema.NullConstraint
	nnaAttrs  map[string]map[string]bool
	// lastFetch is the relation name of the most recent key-shaped fetch, the
	// co-access pair detector's one-deep history (coaccess.go).
	lastFetch atomic.Value
	// transaction state (see txn.go). txnMu guards undo and txnSnap; inTxn is
	// read on the fast path without the mutex. Lock order: table locks before
	// txnMu.
	txnMu   sync.Mutex
	inTxn   atomic.Bool
	undo    []undoOp
	txnSnap *dbSnapshot // read view pinned at Begin
	// wal is the write-ahead log (durable.go); nil for an in-memory engine.
	// Assigned once during Open (after recovery) and immutable afterwards.
	wal      *wal.Log
	recovery RecoveryInfo
	// replMu serializes the replicated-apply stream (replica.go); replPending
	// buffers a shipped transaction's ops until its commit marker arrives.
	// Recovery seeds it: a follower restarted mid-transaction resumes the
	// buffer instead of losing the suffix the primary will never resend.
	replMu      sync.Mutex
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
// structures: the table catalog with prebuilt secondary indexes, the
// dependency indexes by side, the constraint partitions, the lock plans, and
// the co-access edge counters. It mutates nothing on db — the caller decides
// when (and whether) to install the binding.
func (db *DB) newBinding(s *schema.Schema) (*binding, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &binding{
		schema:    s,
		tables:    make(map[string]*table, len(s.Relations)),
		indsFrom:  make(map[string][]schema.IND),
		indsInto:  make(map[string][]schema.IND),
		procNulls: make(map[string][]schema.NullConstraint),
		nnaAttrs:  make(map[string]map[string]bool),
		coEdges:   make(map[string]*coEdge),
		coPairs:   make(map[string]*coEdge),
	}
	for _, rs := range s.Relations {
		hdr := relation.New(rs.AttrNames()...)
		b.tables[rs.Name] = &table{
			name:   rs.Name,
			rs:     rs,
			hdr:    hdr,
			pkPos:  hdr.Positions(rs.PrimaryKey),
			secIdx: make(map[string][]int),
		}
		b.nnaAttrs[rs.Name] = s.NNAAttrs(rs.Name)
	}
	for _, ind := range s.INDs {
		b.indsFrom[ind.Left] = append(b.indsFrom[ind.Left], ind)
		b.indsInto[ind.Right] = append(b.indsInto[ind.Right], ind)
	}
	for _, nc := range s.Nulls {
		if ne, ok := nc.(schema.NullExistence); ok && ne.IsNNA() {
			continue
		}
		b.procNulls[nc.SchemeName()] = append(b.procNulls[nc.SchemeName()], nc)
	}
	for _, ind := range s.INDs {
		if err := b.validateINDShape(ind); err != nil {
			return nil, err
		}
	}
	// Prebuild the full secondary-index set: referencing sides (delete/update
	// restrict checks) and non-key-based referenced sides (insert FK probes,
	// fetch hops). Maintained incrementally from here on, published immutably
	// with every version.
	for _, ind := range s.INDs {
		b.tables[ind.Left].addSecIdx(ind.LeftAttrs)
		if !ind.KeyBased(s) {
			b.tables[ind.Right].addSecIdx(ind.RightAttrs)
		}
	}
	b.lm = newLockManager(b)
	db.buildCoEdges(b)
	return b, nil
}

// install makes b the engine's current binding. The mirror fields alias the
// binding's contents so the write paths (which hold schemaMu shared) keep
// their direct field access. Called from Open (before any concurrency) and
// from migration paths holding schemaMu exclusively.
func (db *DB) install(b *binding) {
	db.Schema = b.schema
	db.tables = b.tables
	db.lm = b.lm
	db.indsFrom = b.indsFrom
	db.indsInto = b.indsInto
	db.procNulls = b.procNulls
	db.nnaAttrs = b.nnaAttrs
	db.bind = b
}

// emptyVersions builds the version-zero table set of a binding: every table
// empty, every prebuilt secondary index present.
func emptyVersions(b *binding) map[string]*tableVersion {
	tables := make(map[string]*tableVersion, len(b.tables))
	for name, t := range b.tables {
		sec := make(map[string]*immap.Map[[]relation.Tuple], len(t.secIdx))
		for key := range t.secIdx {
			sec[key] = immap.New[[]relation.Tuple]()
		}
		tables[name] = &tableVersion{pk: immap.New[relation.Tuple](), sec: sec}
	}
	return tables
}

// addSecIdx registers a prebuilt secondary index over attrs (idempotent).
func (t *table) addSecIdx(attrs []string) {
	key := secondaryKey(attrs)
	if _, ok := t.secIdx[key]; ok {
		return
	}
	t.secIdx[key] = t.hdr.Positions(attrs)
}

// validateINDShape rejects key-based inclusion dependencies whose right-side
// attribute list is not an exact permutation of the referenced scheme's
// primary key. Schema validation alone admits such shapes — IND.KeyBased
// compares attribute SETS, so a right side like [K1, K1, K2] passes against
// the key [K1, K2] — but orderAsKey would then silently drop one
// correspondence and probe the primary-key index with a garbage key,
// rejecting valid foreign keys. Detecting the shape here turns that silent
// misbehaviour into a typed Open error.
func (b *binding) validateINDShape(ind schema.IND) error {
	if !ind.KeyBased(b.schema) {
		return nil
	}
	target := b.tables[ind.Right]
	if target == nil {
		return fmt.Errorf("%w %s (in %s)", ErrUnknownRelation, ind.Right, ind)
	}
	pk := target.rs.PrimaryKey
	if len(ind.RightAttrs) != len(pk) {
		return fmt.Errorf("%w: %s lists %d right-side attributes for the %d-attribute key of %s",
			ErrMalformedIND, ind, len(ind.RightAttrs), len(pk), ind.Right)
	}
	seen := make(map[string]int, len(ind.RightAttrs))
	for _, a := range ind.RightAttrs {
		seen[a]++
	}
	for _, ka := range pk {
		if seen[ka] != 1 {
			return fmt.Errorf("%w: %s must list key attribute %s of %s exactly once (found %d times)",
				ErrMalformedIND, ind, ka, ind.Right, seen[ka])
		}
	}
	return nil
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
	r := relation.New(t.hdr.Attrs()...)
	snap.tables[name].pk.Range(func(_ string, tup relation.Tuple) bool {
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
	return t.hdr
}

// Count returns the tuple count of a relation in the current published
// version (lock-free).
func (db *DB) Count(name string) int {
	v := db.current.Load().tables[name]
	if v == nil {
		return 0
	}
	return v.pk.Len()
}

// Insert adds a tuple to the named relation, enforcing all constraints. On
// violation the state is unchanged and a descriptive error is returned.
func (db *DB) Insert(name string, tup relation.Tuple) error {
	return db.InsertCtx(context.Background(), name, tup)
}

// InsertCtx is Insert with cancellation: a context already cancelled when
// the operation starts aborts it before any state change.
func (db *DB) InsertCtx(ctx context.Context, name string, tup relation.Tuple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := now()
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	ls := db.lm.insert[name]
	db.acquire(ls)
	defer ls.release()
	// Re-check after acquisition: a deadline that expired while this op was
	// queued behind a contended lock plan must not still commit.
	if err := ctx.Err(); err != nil {
		return err
	}
	defer db.m.insertLat.ObserveSince(start)
	tx := db.beginWrite()
	var eff effects
	if err := db.insertLocked(tx, t, tup, &eff); err != nil {
		return err
	}
	return db.commitEffects(tx, eff)
}

// insertLocked validates and stages one tuple, assuming the insert lock set
// of t is held. Mutations are staged in tx and recorded in eff; on error the
// caller simply drops tx (the published state was never touched).
func (db *DB) insertLocked(tx *writeTx, t *table, tup relation.Tuple, eff *effects) error {
	if len(tup) != t.hdr.Arity() {
		return fmt.Errorf("%w for %s", ErrArityMismatch, t.rs.Name)
	}
	if err := db.checkDeclarative(tx, t, tup); err != nil {
		return err
	}
	if err := db.fireInsertTriggers(tx, t, tup); err != nil {
		return err
	}
	eff.apply(tx, t, tup)
	tx.countInsert()
	return nil
}

// checkDeclarative runs the NOT NULL / PRIMARY KEY / key-based FOREIGN KEY
// checks for an incoming tuple against the transaction's staged view.
func (db *DB) checkDeclarative(tx *writeTx, t *table, tup relation.Tuple) error {
	name := t.rs.Name
	// NOT NULL.
	for i, a := range t.rs.AttrNames() {
		tx.countDecl()
		if db.nnaAttrs[name][a] && tup[i].IsNull() {
			return db.violation(&ConstraintViolation{Kind: NotNullViolation, Relation: name, Attr: a, Op: "insert"})
		}
	}
	// PRIMARY KEY uniqueness (all nulls identical, per section 5.1).
	tx.countDecl()
	tx.countIdx()
	if _, dup := tx.pkGet(t, t.keyOfIncoming(tup)); dup {
		return db.violation(&ConstraintViolation{Kind: PrimaryKeyViolation, Relation: name, Op: "insert"})
	}
	// Key-based foreign keys: indexed probe into the referenced table. A
	// local miss on a partition engine falls through to the router's
	// cross-shard probe (partition.go) before it counts as a violation.
	for _, ind := range db.indsFrom[name] {
		target := db.tables[ind.Right]
		if !ind.KeyBased(db.Schema) {
			continue // handled by triggers
		}
		tx.countDecl()
		fk := projectAttrs(t, tup, ind.LeftAttrs)
		if !fk.IsTotal() {
			continue // null foreign keys are exempt
		}
		tx.countIdx()
		if _, ok := tx.pkGet(target, orderAsKey(target, ind.RightAttrs, fk)); !ok {
			hit, err := db.probeReferenced(ind, orderAsKey(target, ind.RightAttrs, fk))
			if err != nil {
				return err
			}
			if !hit {
				return db.violation(&ConstraintViolation{Kind: ForeignKeyViolation, Relation: name, Constraint: ind.String(), Op: "insert"})
			}
		}
	}
	return nil
}

// fireInsertTriggers runs the procedural checks: general null constraints of
// the scheme (single-tuple, so evaluated on the incoming tuple alone) and
// non-key-based inclusion dependencies from the scheme (a probe of the
// referenced relation's prebuilt secondary index).
func (db *DB) fireInsertTriggers(tx *writeTx, t *table, tup relation.Tuple) error {
	name := t.rs.Name
	for _, nc := range db.procNulls[name] {
		tx.countTrig()
		probe := relation.New(t.rs.AttrNames()...)
		probe.Add(tup)
		if !nc.Satisfied(probe) {
			return db.violation(&ConstraintViolation{Kind: NullConstraintViolation, Relation: name, Constraint: fmt.Sprint(nc), Op: "insert"})
		}
	}
	for _, ind := range db.indsFrom[name] {
		if ind.KeyBased(db.Schema) {
			continue
		}
		tx.countTrig()
		fk := projectAttrs(t, tup, ind.LeftAttrs)
		if !fk.IsTotal() {
			continue
		}
		tx.countIdx()
		if len(tx.bucket(db.tables[ind.Right], secondaryKey(ind.RightAttrs), fk.EncodeKey())) == 0 {
			hit, err := db.probeReferenced(ind, fk.EncodeKey())
			if err != nil {
				return err
			}
			if !hit {
				return db.violation(&ConstraintViolation{Kind: ForeignKeyViolation, Relation: name, Constraint: ind.String(), Op: "insert"})
			}
		}
	}
	return nil
}

func secondaryKey(attrs []string) string {
	out := ""
	for i, a := range attrs {
		if i > 0 {
			out += ","
		}
		out += a
	}
	return out
}

func (t *table) keyOfIncoming(tup relation.Tuple) string {
	return tup.Project(t.pkPos).EncodeKey()
}

func projectAttrs(t *table, tup relation.Tuple, attrs []string) relation.Tuple {
	return tup.Project(t.hdr.Positions(attrs))
}

// orderAsKey encodes a foreign-key value in the referenced table's
// primary-key attribute order.
func orderAsKey(target *table, rightAttrs []string, val relation.Tuple) string {
	// Map rightAttrs -> positions within the primary key order.
	ordered := make(relation.Tuple, len(target.rs.PrimaryKey))
	for i, ka := range target.rs.PrimaryKey {
		for j, ra := range rightAttrs {
			if ra == ka {
				ordered[i] = val[j]
			}
		}
	}
	return ordered.EncodeKey()
}
