package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats accumulates operation and cost counters atomically, so hot-path
// accounting never takes a lock and concurrent operations never contend on
// it. Every counter is mirrored into a registry-backed series (below), so
// the same numbers are exportable through DB.Registry().
//
// Each counter has two readings: the windowed value (since the last Reset,
// what the accessor methods return) and the monotonic total (process
// lifetime, Totals). Registry series are monotonic, so they reconcile with
// Totals at any moment — even across a mid-run Reset.
type Stats struct {
	inserts, deletes, updates, lookups statCounter
	declarativeChecks, triggerFirings  statCounter
	indexLookups, tuplesScanned        statCounter
}

// statCounter is one atomic counter with a reset baseline: cum only grows
// (mirroring the registry), Reset advances base, and the windowed value is
// cum - base.
type statCounter struct{ cum, base atomic.Int64 }

func (c *statCounter) add(n int64) { c.cum.Add(n) }
func (c *statCounter) value() int  { return int(c.cum.Load() - c.base.Load()) }
func (c *statCounter) total() int  { return int(c.cum.Load()) }
func (c *statCounter) reset()      { c.base.Store(c.cum.Load()) }

// Inserts returns the insert count since the last Reset.
func (st *Stats) Inserts() int { return st.inserts.value() }

// Deletes returns the delete count since the last Reset.
func (st *Stats) Deletes() int { return st.deletes.value() }

// Updates returns the update count since the last Reset.
func (st *Stats) Updates() int { return st.updates.value() }

// Lookups returns the key-lookup count since the last Reset.
func (st *Stats) Lookups() int { return st.lookups.value() }

// DeclarativeChecks returns the NOT NULL / primary-key / foreign-key check
// count since the last Reset.
func (st *Stats) DeclarativeChecks() int { return st.declarativeChecks.value() }

// TriggerFirings returns the procedural constraint evaluation count (general
// null constraints, non-key-based inclusion dependencies) since the last
// Reset.
func (st *Stats) TriggerFirings() int { return st.triggerFirings.value() }

// IndexLookups returns the hash-index probe count since the last Reset.
func (st *Stats) IndexLookups() int { return st.indexLookups.value() }

// TuplesScanned returns the scan-visited tuple count since the last Reset.
func (st *Stats) TuplesScanned() int { return st.tuplesScanned.value() }

// Reset starts a new measurement window: the accessors return 0 until new
// operations arrive. The monotonic Totals — and the registry series behind
// them — are unaffected.
func (st *Stats) Reset() {
	st.inserts.reset()
	st.deletes.reset()
	st.updates.reset()
	st.lookups.reset()
	st.declarativeChecks.reset()
	st.triggerFirings.reset()
	st.indexLookups.reset()
	st.tuplesScanned.reset()
}

// StatsSnapshot is a point-in-time copy of the counters as plain integers.
type StatsSnapshot struct {
	Inserts           int
	Deletes           int
	Updates           int
	Lookups           int
	DeclarativeChecks int
	TriggerFirings    int
	IndexLookups      int
	TuplesScanned     int
	// VersionLSN is the LSN stamp of the published version current when the
	// snapshot was taken. Stats itself cannot see the version chain, so
	// Snapshot/Totals leave it zero; the session and server layers stamp it
	// from DB.VersionLSN() (older peers omit it on the wire — it reads zero).
	VersionLSN uint64
}

// Snapshot copies the windowed counters (since the last Reset).
func (st *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Inserts:           st.inserts.value(),
		Deletes:           st.deletes.value(),
		Updates:           st.updates.value(),
		Lookups:           st.lookups.value(),
		DeclarativeChecks: st.declarativeChecks.value(),
		TriggerFirings:    st.triggerFirings.value(),
		IndexLookups:      st.indexLookups.value(),
		TuplesScanned:     st.tuplesScanned.value(),
	}
}

// Totals copies the monotonic process-lifetime counters, which equal the
// registry series at every instant regardless of Resets — the invariant the
// relmerge -metrics reconciliation checks.
func (st *Stats) Totals() StatsSnapshot {
	return StatsSnapshot{
		Inserts:           st.inserts.total(),
		Deletes:           st.deletes.total(),
		Updates:           st.updates.total(),
		Lookups:           st.lookups.total(),
		DeclarativeChecks: st.declarativeChecks.total(),
		TriggerFirings:    st.triggerFirings.total(),
		IndexLookups:      st.indexLookups.total(),
		TuplesScanned:     st.tuplesScanned.total(),
	}
}

// Metric names registered per database. Each DB registers one series per
// name under its db=<name> label, so several engines (base vs. merged) can
// share one registry and stay distinguishable.
const (
	metricInserts        = "engine.inserts"
	metricDeletes        = "engine.deletes"
	metricUpdates        = "engine.updates"
	metricLookups        = "engine.lookups"
	metricDeclChecks     = "engine.declarative_checks"
	metricTriggerFirings = "engine.trigger_firings"
	metricIndexLookups   = "engine.index_lookups"
	metricTuplesScanned  = "engine.tuples_scanned"
	metricViolations     = "engine.constraint_violations"
	metricInsertSeconds  = "engine.insert_seconds"
	metricDeleteSeconds  = "engine.delete_seconds"
	metricUpdateSeconds  = "engine.update_seconds"
	metricLookupSeconds  = "engine.lookup_seconds"

	// MVCC read-path series (version.go): publication count and latency, the
	// LSN stamp and age of the current version, lock-free snapshot reads,
	// and writer-mutex acquisitions (zero delta over a read-only phase = the
	// lock-free proof TestMVCCReadPathLockFree asserts).
	metricPublishes        = "engine.mvcc.publishes"
	metricPublishSeconds   = "engine.mvcc.publish_seconds"
	metricVersionLSN       = "engine.mvcc.version_lsn"
	metricVersionAge       = "engine.mvcc.version_age_seconds"
	metricSnapshotReads    = "engine.mvcc.snapshot_reads"
	metricLockAcquisitions = "engine.lock_acquisitions"

	// Online-advisor series: co-access edge hits observed on the fetch path
	// and live schema migrations applied (MigrateSchema publishes).
	metricCoAccess   = "advisor.co_access"
	metricMigrations = "advisor.migrations"
)

// dbMetrics holds the registry-backed counter and histogram handles behind
// the Stats API. The registry series are monotonic: Stats.Reset() starts a
// new Stats window but never rewinds the registry, which records
// process-lifetime totals (= Stats.Totals()).
type dbMetrics struct {
	inserts, deletes, updates, lookups         *obs.Counter
	declChecks, triggerFirings                 *obs.Counter
	indexLookups, tuplesScanned                *obs.Counter
	violations                                 *obs.Counter
	publishes, snapshotReads, lockAcquisitions *obs.Counter
	coAccess, migrations                       *obs.Counter
	versionLSN                                 *obs.Gauge
	insertLat, deleteLat, updateLat, lookupLat *obs.Histogram
	publishLat                                 *obs.Histogram
}

func newDBMetrics(r *obs.Registry, name string) *dbMetrics {
	l := obs.L("db", name)
	return &dbMetrics{
		inserts:          r.Counter(metricInserts, l),
		deletes:          r.Counter(metricDeletes, l),
		updates:          r.Counter(metricUpdates, l),
		lookups:          r.Counter(metricLookups, l),
		declChecks:       r.Counter(metricDeclChecks, l),
		triggerFirings:   r.Counter(metricTriggerFirings, l),
		indexLookups:     r.Counter(metricIndexLookups, l),
		tuplesScanned:    r.Counter(metricTuplesScanned, l),
		violations:       r.Counter(metricViolations, l),
		publishes:        r.Counter(metricPublishes, l),
		snapshotReads:    r.Counter(metricSnapshotReads, l),
		lockAcquisitions: r.Counter(metricLockAcquisitions, l),
		coAccess:         r.Counter(metricCoAccess, l),
		migrations:       r.Counter(metricMigrations, l),
		versionLSN:       r.Gauge(metricVersionLSN, l),
		insertLat:        r.Histogram(metricInsertSeconds, obs.LatencyBuckets, l),
		deleteLat:        r.Histogram(metricDeleteSeconds, obs.LatencyBuckets, l),
		updateLat:        r.Histogram(metricUpdateSeconds, obs.LatencyBuckets, l),
		lookupLat:        r.Histogram(metricLookupSeconds, obs.LatencyBuckets, l),
		publishLat:       r.Histogram(metricPublishSeconds, obs.LatencyBuckets, l),
	}
}

// registerVersionAge registers the version-age gauge: seconds since the last
// publish, the "how stale can a freshly pinned read view be" signal. It is a
// GaugeFunc because the age advances between publishes with no event to hook.
func (m *dbMetrics) registerVersionAge(r *obs.Registry, name string, db *DB) {
	r.GaugeFunc(metricVersionAge, func() float64 {
		return now().Sub(time.Unix(0, db.lastPublish.Load())).Seconds()
	}, obs.L("db", name))
}

// The accounting helpers below are the single mutation points for the cost
// counters: each keeps the Stats counter and its registry series in
// lockstep — both atomic, so they are callable from any point of any
// operation, locked or not.

func (db *DB) countInsert() { db.Stats.inserts.add(1); db.m.inserts.Inc() }
func (db *DB) countDelete() { db.Stats.deletes.add(1); db.m.deletes.Inc() }
func (db *DB) countUpdate() { db.Stats.updates.add(1); db.m.updates.Inc() }
func (db *DB) countLookup() { db.Stats.lookups.add(1); db.m.lookups.Inc() }

func (db *DB) countDecl(n int) {
	db.Stats.declarativeChecks.add(int64(n))
	db.m.declChecks.Add(int64(n))
}
func (db *DB) countTrig() { db.Stats.triggerFirings.add(1); db.m.triggerFirings.Inc() }
func (db *DB) countIdx()  { db.Stats.indexLookups.add(1); db.m.indexLookups.Inc() }

func (db *DB) countScan(n int) {
	db.Stats.tuplesScanned.add(int64(n))
	db.m.tuplesScanned.Add(int64(n))
}

// countSnapRead counts one lock-free snapshot-pinned read (registry only:
// the Stats window API stays wire-compatible).
func (db *DB) countSnapRead() { db.m.snapshotReads.Inc() }

// countCoAccess counts one co-access edge hit (registry only).
func (db *DB) countCoAccess() { db.m.coAccess.Inc() }

// violation counts a rejected mutation and returns the error unchanged, so
// check paths can `return db.violation(&ConstraintViolation{...})`.
func (db *DB) violation(err *ConstraintViolation) error {
	db.m.violations.Inc()
	return err
}

// Registry returns the metrics registry this DB reports into — by default a
// private registry, or the one injected with WithRegistry.
func (db *DB) Registry() *obs.Registry { return db.reg }

// MetricName returns the label value this DB registers its series under.
func (db *DB) MetricName() string { return db.obsName }

// now is indirect for tests; latency histograms observe time.Since(now()).
var now = time.Now
