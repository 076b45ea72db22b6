package engine

import (
	"time"

	"repro/internal/obs"
)

// StatsSnapshot is a point-in-time copy of an engine's monotonic cost
// counters as plain integers: a view of its registry series (StatsTotals).
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
	// snapshot was taken (older peers omit it on the wire — it reads zero).
	VersionLSN uint64
}

// Sub returns the counts accumulated between an earlier reading and this
// one: a measurement window is StatsTotals() before, StatsTotals() after,
// after.Sub(before). VersionLSN stays the later reading's.
func (st StatsSnapshot) Sub(before StatsSnapshot) StatsSnapshot {
	st.Inserts -= before.Inserts
	st.Deletes -= before.Deletes
	st.Updates -= before.Updates
	st.Lookups -= before.Lookups
	st.DeclarativeChecks -= before.DeclarativeChecks
	st.TriggerFirings -= before.TriggerFirings
	st.IndexLookups -= before.IndexLookups
	st.TuplesScanned -= before.TuplesScanned
	return st
}

// StatsTotals reads the monotonic cost counters from the registry series and
// stamps them with the current version LSN — the snapshot sessions and
// servers report, and the per-shard term of a router's aggregated stats.
func (db *DB) StatsTotals() StatsSnapshot {
	return StatsSnapshot{
		Inserts:           int(db.m.inserts.Value()),
		Deletes:           int(db.m.deletes.Value()),
		Updates:           int(db.m.updates.Value()),
		Lookups:           int(db.m.lookups.Value()),
		DeclarativeChecks: int(db.m.declChecks.Value()),
		TriggerFirings:    int(db.m.triggerFirings.Value()),
		IndexLookups:      int(db.m.indexLookups.Value()),
		TuplesScanned:     int(db.m.tuplesScanned.Value()),
		VersionLSN:        db.VersionLSN(),
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

// dbMetrics holds the engine's registry-backed counter and histogram
// handles. The series are monotonic process-lifetime totals; StatsTotals is
// the view of the eight cost counters among them.
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
// counters — one atomic add each, so they are callable from any point of any
// operation, locked or not.

func (db *DB) countInsert()    { db.m.inserts.Inc() }
func (db *DB) countDelete()    { db.m.deletes.Inc() }
func (db *DB) countUpdate()    { db.m.updates.Inc() }
func (db *DB) countLookup()    { db.m.lookups.Inc() }
func (db *DB) countDecl(n int) { db.m.declChecks.Add(int64(n)) }
func (db *DB) countTrig()      { db.m.triggerFirings.Inc() }
func (db *DB) countIdx()       { db.m.indexLookups.Inc() }
func (db *DB) countScan(n int) { db.m.tuplesScanned.Add(int64(n)) }

// countSnapRead counts one lock-free snapshot-pinned read.
func (db *DB) countSnapRead() { db.m.snapshotReads.Inc() }

// countCoAccess counts one co-access edge hit.
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
