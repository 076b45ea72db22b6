package relmerge

import (
	"context"

	"repro/internal/engine"
	"repro/internal/state"
)

// Engine-side types, re-exported so callers can run the in-memory engine —
// loads, lookups, batched mutations, stats — without importing internal/engine.
type (
	// Engine is the concurrent in-memory engine: lock-free snapshot reads,
	// one writer mutex, atomic stats, and batched mutation APIs.
	Engine = engine.DB
	// EngineOption configures OpenEngine.
	EngineOption = engine.Option
	// BatchOp is one operation of a mixed batch (see Engine.ApplyBatchCtx).
	BatchOp = engine.BatchOp
	// EngineStats is a point-in-time copy of an engine's cost counters.
	EngineStats = engine.StatsSnapshot
	// ConstraintViolation is the typed error mutations return when a
	// declarative or procedural constraint rejects them.
	ConstraintViolation = engine.ConstraintViolation
	// EngineView is a consistent read view pinned to one published MVCC
	// version of an engine: every lookup, scan, and navigational fetch
	// through it answers from the same immutable snapshot, lock-free, no
	// matter how many writers commit meanwhile. Obtain one with
	// EmbeddedSession.View or Engine.View; re-pin for freshness.
	EngineView = engine.View
	// RelatedTuple is one edge of a navigational fetch result: the referenced
	// (or referencing) tuple reached by following an inclusion dependency.
	RelatedTuple = engine.Related
)

// Engine options, re-exported from internal/engine.
var (
	// WithEngineRegistry reports the engine's metrics into r instead of a
	// private registry.
	WithEngineRegistry = engine.WithRegistry
	// WithEngineName sets the db=<name> label on the engine's metric series.
	WithEngineName = engine.WithName
)

// Batch op constructors, re-exported from internal/engine.
var (
	// Ins builds an insert batch op.
	Ins = engine.Ins
	// Del builds a delete batch op (key = primary key of the target tuple).
	Del = engine.Del
	// Upd builds an update batch op.
	Upd = engine.Upd
)

// OpenEngine opens an engine over the schema: validates the constraint set,
// compiles the per-table write plans and indexes, and registers the metric
// series.
func OpenEngine(s *Schema, opts ...EngineOption) (*Engine, error) {
	return engine.Open(s, opts...)
}

// ReplayCtx loads a database state into a fresh engine over s — each relation
// as one atomic batch — and returns the engine. Use it to stand up a
// queryable engine from a state built by hand, parsed from SDL, or mapped
// through a merge's η mapping. Cancellation is checked between relation
// batches, so a large load can be abandoned at a consistent prefix.
func ReplayCtx(ctx context.Context, s *Schema, db *state.DB, opts ...EngineOption) (*Engine, error) {
	e, err := engine.Open(s, opts...)
	if err != nil {
		return nil, err
	}
	if err := e.LoadCtx(ctx, db); err != nil {
		return nil, err
	}
	return e, nil
}

// ReplayState replays a database state through a Session, one atomic
// InsertBatchCtx per relation, in an order where every inclusion-dependency
// target loads before its referencing relation. It is the Session-level
// counterpart of Engine.LoadCtx: the same replay works against an embedded
// engine or across the wire to a relmerged server.
//
// The schema must be the one the session's engine serves; relations present
// in the schema but absent from the state are skipped. Cancellation is
// checked between relations, so an abandoned replay stops at a consistent
// prefix (whole relations either fully loaded or untouched).
func ReplayState(ctx context.Context, sess Session, s *Schema, db *DB) error {
	return db.Replay(ctx, s, sess.InsertBatchCtx)
}
