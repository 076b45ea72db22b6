package relmerge

import (
	"context"
	"time"

	"repro/internal/server"
)

// RemoteSession is a Session backed by a relmerged server over TCP: pooled
// connections, per-request deadlines, and automatic retries (with jittered
// exponential backoff) for idempotent operations only — fetches, stats, and
// pings are retried after transport errors or server overload; mutations
// never are, because a connection that dies mid-request leaves their outcome
// unknown.
type RemoteSession struct {
	c *server.Client
}

// RemoteOption configures the client of a Remote session (Config.RemoteOptions).
type RemoteOption func(*server.ClientOptions)

// WithPoolSize bounds the remote session's open connections (default 4).
// Size it to the caller's concurrency: each in-flight request holds one
// connection for its round trip.
func WithPoolSize(n int) RemoteOption {
	return func(o *server.ClientOptions) { o.PoolSize = n }
}

// WithDialTimeout bounds one dial + protocol handshake (default 5s).
func WithDialTimeout(d time.Duration) RemoteOption {
	return func(o *server.ClientOptions) { o.DialTimeout = d }
}

// WithRequestTimeout sets the per-request deadline used when the caller's
// context has none (default 30s; negative disables). The remaining budget is
// sent to the server, which abandons requests whose deadline expires while
// queued.
func WithRequestTimeout(d time.Duration) RemoteOption {
	return func(o *server.ClientOptions) { o.RequestTimeout = d }
}

// WithRetries sets how many times an idempotent request is retried after a
// retryable failure (default 2; pass a negative value to disable retries).
// Mutations are never retried regardless.
func WithRetries(n int) RemoteOption {
	return func(o *server.ClientOptions) { o.Retries = n }
}

// WithRetryBackoff sets the base of the jittered exponential retry backoff
// (default 5ms).
func WithRetryBackoff(d time.Duration) RemoteOption {
	return func(o *server.ClientOptions) { o.RetryBackoff = d }
}

func (s *RemoteSession) InsertCtx(ctx context.Context, relName string, tup Tuple) error {
	return s.c.InsertCtx(ctx, relName, tup)
}

func (s *RemoteSession) DeleteCtx(ctx context.Context, relName string, key Tuple) error {
	return s.c.DeleteCtx(ctx, relName, key)
}

func (s *RemoteSession) UpdateCtx(ctx context.Context, relName string, key, tup Tuple) error {
	return s.c.UpdateCtx(ctx, relName, key, tup)
}

func (s *RemoteSession) FetchCtx(ctx context.Context, relName string, key Tuple) (Tuple, bool, error) {
	return s.c.FetchCtx(ctx, relName, key)
}

func (s *RemoteSession) InsertBatchCtx(ctx context.Context, relName string, tuples []Tuple) error {
	return s.c.InsertBatchCtx(ctx, relName, tuples)
}

func (s *RemoteSession) ApplyBatchCtx(ctx context.Context, ops []BatchOp) error {
	return s.c.ApplyBatchCtx(ctx, ops)
}

func (s *RemoteSession) BeginCtx(ctx context.Context) error { return s.c.BeginCtx(ctx) }

func (s *RemoteSession) CommitCtx(ctx context.Context) error { return s.c.CommitCtx(ctx) }

func (s *RemoteSession) RollbackCtx(ctx context.Context) error { return s.c.RollbackCtx(ctx) }

func (s *RemoteSession) StatsCtx(ctx context.Context) (EngineStats, error) {
	return s.c.StatsCtx(ctx)
}

func (s *RemoteSession) CheckpointCtx(ctx context.Context) error { return s.c.CheckpointCtx(ctx) }

// PingCtx round-trips a no-op request, verifying the connection and the
// server's liveness.
func (s *RemoteSession) PingCtx(ctx context.Context) error { return s.c.PingCtx(ctx) }

// Close closes the connection pool. The server keeps running.
func (s *RemoteSession) Close() error { return s.c.Close() }

var _ Session = (*RemoteSession)(nil)
