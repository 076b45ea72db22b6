package relmerge

import (
	"context"
	"fmt"

	"repro/internal/advisor/online"
	"repro/internal/engine"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
)

// Session is the unified operational API: inserts, deletes, updates, key
// lookups, atomic batches, the (single, global) transaction, stats, and
// checkpoints. Open returns one on any of four backends — embedded engine,
// shard router, replication follower, remote client — so workload drivers,
// the CLI, and benchmarks run unchanged against each.
//
// Every operation takes a context and exists in this one spelling: a context
// already ended when the operation starts aborts it before any state change.
// The in-process backends (embedded, sharded, follower) share one
// implementation over server.Backend; the remote session speaks the same
// operations over the wire. Errors carry the same taxonomy everywhere:
// errors.Is against the package sentinels, errors.As against
// *ConstraintViolation, and Code all behave identically whether the engine
// is in-process or across the wire.
type Session interface {
	// InsertCtx adds one tuple, enforcing all constraints.
	InsertCtx(ctx context.Context, relName string, tup Tuple) error
	// DeleteCtx removes the tuple with the given primary key.
	DeleteCtx(ctx context.Context, relName string, key Tuple) error
	// UpdateCtx replaces the tuple with the given primary key.
	UpdateCtx(ctx context.Context, relName string, key, tup Tuple) error
	// FetchCtx looks up one tuple by primary key; found=false (with nil
	// error) reports a clean miss.
	FetchCtx(ctx context.Context, relName string, key Tuple) (tup Tuple, found bool, err error)
	// InsertBatchCtx inserts tuples as one atomic group (one lock
	// acquisition, one WAL record).
	InsertBatchCtx(ctx context.Context, relName string, tuples []Tuple) error
	// ApplyBatchCtx applies a mixed batch of Ins/Del/Upd ops atomically.
	ApplyBatchCtx(ctx context.Context, ops []BatchOp) error
	// BeginCtx/CommitCtx/RollbackCtx drive the engine's single global
	// transaction.
	BeginCtx(ctx context.Context) error
	CommitCtx(ctx context.Context) error
	RollbackCtx(ctx context.Context) error
	// StatsCtx returns the engine's monotonic operation counters.
	StatsCtx(ctx context.Context) (EngineStats, error)
	// CheckpointCtx snapshots a durable engine's state into its WAL
	// (ErrNotDurable otherwise).
	CheckpointCtx(ctx context.Context) error
	// ApplyRecommendation migrates the live design onto a merge the advisor
	// recommended (see Advise). Backends that own their design (Embedded,
	// Sharded) re-derive the merge on the current schema and migrate through
	// one atomic schema-change; Remote and Follower sessions return
	// ErrUnsupported (CodeUnsupported) — the design is the server's,
	// respectively the primary's, to change.
	ApplyRecommendation(ctx context.Context, rec Recommendation) error
	// Close releases the session. Closing an in-process session closes its
	// engine(s) and their WALs; closing a remote session closes the
	// connection pool, leaving the server running.
	Close() error
}

// backendSession is the one implementation of Session for every in-process
// backend: the operations of a server.Backend — the interface relmerged
// serves — behind the cancellation pre-check and transaction-error mapping
// the Session contract adds.
type backendSession struct {
	b server.Backend
	// target is the live design Advise measures and ApplyRecommendation
	// migrates; nil when the backend does not own its design (a follower
	// replays the primary's).
	target online.Target
	// advStop stops the background advisor loop, when Open started one
	// (WithAdvisor / Config.Advisor); nil otherwise.
	advStop func()
}

var (
	_ server.Backend = (*engine.DB)(nil)
	_ server.Backend = (*shard.Router)(nil)
	_ server.Backend = (*repl.Backend)(nil)
)

func (s *backendSession) InsertCtx(ctx context.Context, relName string, tup Tuple) error {
	return s.b.InsertCtx(ctx, relName, tup)
}

func (s *backendSession) DeleteCtx(ctx context.Context, relName string, key Tuple) error {
	return s.b.DeleteCtx(ctx, relName, key)
}

func (s *backendSession) UpdateCtx(ctx context.Context, relName string, key, tup Tuple) error {
	return s.b.UpdateCtx(ctx, relName, key, tup)
}

func (s *backendSession) FetchCtx(ctx context.Context, relName string, key Tuple) (Tuple, bool, error) {
	return s.b.GetByKeyCtx(ctx, relName, key)
}

func (s *backendSession) InsertBatchCtx(ctx context.Context, relName string, tuples []Tuple) error {
	return s.b.InsertBatchCtx(ctx, relName, tuples)
}

func (s *backendSession) ApplyBatchCtx(ctx context.Context, ops []BatchOp) error {
	return s.b.ApplyBatchCtx(ctx, ops)
}

func (s *backendSession) BeginCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.b.Begin())
}

func (s *backendSession) CommitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.b.Commit())
}

func (s *backendSession) RollbackCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.b.Rollback())
}

func (s *backendSession) StatsCtx(ctx context.Context) (EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return EngineStats{}, err
	}
	return s.b.StatsTotals(), nil
}

func (s *backendSession) CheckpointCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.b.Checkpoint()
}

// ApplyRecommendation migrates the live design onto the recommended merge.
// The merge is derived on the design the backend holds when it takes its
// migration lock, so a recommendation computed against a design that has
// since moved returns an error and changes nothing. A sharded session
// migrates each shard's own slice through the router (one schema-change WAL
// record per shard); a follower returns ErrUnsupported — migrate the primary
// and the schema-change record replicates like any other.
func (s *backendSession) ApplyRecommendation(ctx context.Context, rec Recommendation) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.target == nil {
		return fmt.Errorf("%w: a follower replays the primary's design; apply the recommendation on the primary", ErrUnsupported)
	}
	if len(rec.Cluster) < 2 || rec.MergedName == "" || rec.KeyRelation == "" {
		return fmt.Errorf("relmerge: ApplyRecommendation requires a recommendation produced by Advise (cluster, key-relation, and merged name)")
	}
	return online.ApplyCluster(s.target, rec.Cluster, rec.MergedName, rec.KeyRelation)
}

// Close stops the advisor loop, if one runs, and closes the backend: the
// engine and its WAL, every shard engine, or the follower's shipping loop,
// engine and log.
func (s *backendSession) Close() error {
	if s.advStop != nil {
		s.advStop()
		s.advStop = nil
	}
	return s.b.Close()
}

// designTarget is how Advise and StartAdvisor reach the live design behind a
// Session value.
func (s *backendSession) designTarget() online.Target { return s.target }

// EmbeddedSession is the Session over an in-process *Engine.
type EmbeddedSession struct {
	backendSession
	eng *Engine
}

// NewSession wraps an already-open engine. The caller keeps full access to
// the engine; the session is a view, not a transfer of ownership — but
// Close does close the engine.
func NewSession(e *Engine) *EmbeddedSession {
	return &EmbeddedSession{backendSession{b: e, target: online.ForDB(e)}, e}
}

// Engine returns the wrapped engine, for callers that need APIs beyond the
// Session surface (Scan, Snapshot, Count, recovery info).
func (s *EmbeddedSession) Engine() *Engine { return s.eng }

// View pins the engine's current published MVCC version as a consistent,
// lock-free read view: repeated reads through it are repeatable (they never
// observe later commits), and a batch is visible either whole or not at all.
// It is an embedded-only capability — a remote session's reads are each
// individually snapshot-consistent, but pinning a version across calls
// requires sharing the engine's memory.
func (s *EmbeddedSession) View() *EngineView { return s.eng.View() }

var _ Session = (*EmbeddedSession)(nil)
