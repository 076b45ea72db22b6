package relmerge

import "repro/internal/repl"

// ReplicationInfo is a point-in-time view of a follower's replication state:
// applied and commit LSNs, shipping lag, last primary contact, promotion, and
// the sticky error (if any) that broke replication.
type ReplicationInfo = repl.Info

// FollowerSession is the Session over a WAL-shipping replica: reads serve
// lock-free from the local engine pinned at the follower's applied-LSN
// horizon, while every write fails with ErrReadOnly (CodeReadOnly) until
// Promote. Open one with Open(Config{Backend: Follower, Schema: s, Addr:
// primary, DurableDir: dir}); the Schema must be the primary's serving
// schema, since shipped records and bootstrap snapshots are decoded against
// it.
//
// A follower whose shipped stream turns out to be untrustworthy — a gap, a
// corrupt snapshot — fails sticky: reads refuse with ErrRecovery rather than
// serving a state known to miss committed records. Transient primary
// outages, by contrast, leave reads serving at the applied horizon while the
// shipping loop retries.
type FollowerSession struct {
	backendSession
	f *repl.Follower
}

// NewFollowerSession wraps an already-open follower. Close stops shipping
// and closes the follower's engine.
func NewFollowerSession(f *repl.Follower) *FollowerSession {
	return &FollowerSession{backendSession{b: f.Backend()}, f}
}

// Engine returns the follower's local engine, for read APIs beyond the
// Session surface (Scan, Snapshot, View). Writing to it directly would
// diverge the replica — use Promote first.
func (s *FollowerSession) Engine() *Engine { return s.f.DB() }

// View pins the follower's current applied version as a consistent,
// lock-free read view (see EmbeddedSession.View).
func (s *FollowerSession) View() *EngineView { return s.f.DB().View() }

// ReplicationInfo returns the follower's current replication state.
func (s *FollowerSession) ReplicationInfo() ReplicationInfo { return s.f.Info() }

// Promote stops shipping and opens the session for writes: the follower
// becomes a primary over exactly the acked prefix its log holds, continuing
// the primary's LSN sequence. Irreversible; refused on a broken follower.
func (s *FollowerSession) Promote() error { return s.f.Promote() }

var _ Session = (*FollowerSession)(nil)
