package relmerge

import "repro/internal/shard"

// ShardedSession is the Session over a shard router — N independent engines
// behind a hash-partitioning, cross-shard-constraint-checking front. Open
// with Open(Config{Backend: Sharded, ...}); the conformance suite runs
// against it unchanged, including constraint-violation kinds for
// dependencies whose two sides live on different shards.
type ShardedSession struct {
	backendSession
	r *shard.Router
}

// ShardedView is a read view pinned across every shard's current MVCC
// version, re-exported from internal/shard.
type ShardedView = shard.View

// NewShardedSession wraps an already-open router (see shard.Open); most
// callers use Open(Config{Backend: Sharded}) instead. Close closes every
// shard engine.
func NewShardedSession(r *shard.Router) *ShardedSession {
	return &ShardedSession{backendSession{b: r, target: routerTarget{r}}, r}
}

// Router returns the wrapped router, for callers that need APIs beyond the
// Session surface (per-shard engines, probe stats, views).
func (s *ShardedSession) Router() *shard.Router { return s.r }

// View pins every shard's current MVCC version as one read view (per-shard
// consistent; see shard.Router.View).
func (s *ShardedSession) View() *ShardedView { return s.r.View() }

var _ Session = (*ShardedSession)(nil)
