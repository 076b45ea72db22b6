package relmerge

import (
	"fmt"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// BackendKind selects what an Open'd Session runs on.
type BackendKind int

const (
	// Embedded runs the engine in-process (the zero value — plain
	// Open(Config{Schema: s}) gives an embedded session).
	Embedded BackendKind = iota
	// Remote connects to a relmerged server over TCP.
	Remote
	// Sharded runs N in-process engines behind a hash-partitioning router
	// that checks inclusion dependencies across shards.
	Sharded
	// Follower runs a local durable engine that continuously replays a
	// primary relmerged server's shipped WAL and serves read-only sessions
	// pinned at its applied-LSN horizon; writes fail with CodeReadOnly until
	// Promote.
	Follower
)

func (k BackendKind) String() string {
	switch k {
	case Embedded:
		return "embedded"
	case Remote:
		return "remote"
	case Sharded:
		return "sharded"
	case Follower:
		return "follower"
	}
	return fmt.Sprintf("BackendKind(%d)", int(k))
}

// Config describes a Session for Open: which backend, and the few fields
// that backend needs. Zero values are meaningful everywhere — the minimal
// embedded session is Open(Config{Schema: s}), the minimal remote one
// Open(Config{Backend: Remote, Addr: addr}).
type Config struct {
	// Backend selects the implementation (default Embedded).
	Backend BackendKind

	// Schema is the relational schema (Embedded and Sharded; ignored by
	// Remote — the server owns the schema).
	Schema *Schema

	// Addr is the relmerged server address: the server a Remote session
	// talks to, or the primary a Follower ships its WAL from.
	Addr string
	// RemoteOptions tune the remote client: pool size, timeouts, retries
	// (Remote only).
	RemoteOptions []RemoteOption

	// Shards is the partition count (Sharded only; must be >= 1).
	Shards int

	// DurableDir, when set, opens a write-ahead log there (Embedded), or one
	// per shard in subdirectories shard-<i> (Sharded). An existing log is
	// recovered from first. Required for Follower — the local log IS the
	// replica state, and a restarted follower resumes from it.
	DurableDir string
	// Sync is the fsync policy of the log(s) (default SyncNever). Ignored
	// unless DurableDir is set.
	Sync SyncPolicy

	// PollInterval is a follower's fetch cadence when caught up with the
	// primary (Follower only; 0 = default 25ms). While behind, the follower
	// fetches continuously without sleeping.
	PollInterval time.Duration

	// EngineOptions are extra engine options — metric names, a shared
	// registry — applied to the embedded engine or to every shard.
	EngineOptions []EngineOption
	// Registry receives the backend's metric series (Embedded and Sharded;
	// nil keeps each engine's private registry). For Remote it receives the
	// client-side wire counters (client.bytes_read / client.bytes_written /
	// client.requests / client.retries, labeled client=<addr>).
	Registry *Registry

	// Advisor configures the background adaptive-merge advisor (usually set
	// via the WithAdvisor option). Modes other than AdvisorOff are valid only
	// on backends that own their design: Open refuses them on Remote and
	// Follower with an error wrapping ErrUnsupported.
	Advisor AdvisorConfig
}

// OpenOption mutates the Config before Open validates it, so call sites can
// layer optional behavior over a literal base config:
//
//	sess, err := relmerge.Open(cfg, relmerge.WithAdvisor(relmerge.AdvisorAuto, time.Second))
type OpenOption func(*Config)

// WithAdvisor runs the adaptive-merge advisor loop on the opened session:
// every interval (0 = default 1s) it reads the engine's co-access
// measurements, prices the merge candidates, and — in AdvisorAuto mode —
// applies the best auto-applicable (only-NNA) merge to the live design.
// Valid on Embedded and Sharded backends only.
func WithAdvisor(mode AdvisorMode, interval time.Duration) OpenOption {
	return func(cfg *Config) {
		cfg.Advisor.Mode = mode
		cfg.Advisor.Interval = interval
	}
}

// WithAdvisorConfig is WithAdvisor with the full policy surface: admission
// heat, pinned cost model, and observation callbacks.
func WithAdvisorConfig(ac AdvisorConfig) OpenOption {
	return func(cfg *Config) { cfg.Advisor = ac }
}

// Open is the one constructor for every Session backend: embedded engine,
// remote client, or sharded router, selected by cfg.Backend. The returned
// Session behaves identically across backends — same method set, same error
// taxonomy (sentinels, *ConstraintViolation, Code), as enforced by the
// cross-backend conformance suite.
//
// The concrete session types (*EmbeddedSession, *ShardedSession,
// *FollowerSession, *RemoteSession) add what only their backend has —
// Engine, Router, View, Promote, PingCtx; assert for them where needed.
func Open(cfg Config, options ...OpenOption) (Session, error) {
	for _, opt := range options {
		opt(&cfg)
	}
	if cfg.Advisor.Mode != AdvisorOff {
		switch cfg.Backend {
		case Remote:
			return nil, fmt.Errorf("%w: Open(%v) with advisor mode %v — a remote session cannot migrate the server's design; run the advisor on the server (relmerged -advise)", ErrUnsupported, cfg.Backend, cfg.Advisor.Mode)
		case Follower:
			return nil, fmt.Errorf("%w: Open(%v) with advisor mode %v — a follower replays the primary's design; run the advisor on the primary", ErrUnsupported, cfg.Backend, cfg.Advisor.Mode)
		}
	}
	switch cfg.Backend {
	case Embedded:
		if cfg.Schema == nil {
			return nil, fmt.Errorf("relmerge: Open(%v) requires Schema", cfg.Backend)
		}
		opts := append([]EngineOption{}, cfg.EngineOptions...)
		if cfg.Registry != nil {
			opts = append(opts, WithEngineRegistry(cfg.Registry))
		}
		if cfg.DurableDir != "" {
			opts = append(opts, WithDurability(cfg.DurableDir, cfg.Sync))
		}
		eng, err := OpenEngine(cfg.Schema, opts...)
		if err != nil {
			return nil, err
		}
		sess := NewSession(eng)
		sess.advStop = startAdvisor(sess.target, cfg.Advisor)
		return sess, nil

	case Remote:
		if cfg.Addr == "" {
			return nil, fmt.Errorf("relmerge: Open(%v) requires Addr", cfg.Backend)
		}
		var o server.ClientOptions
		o.Registry = cfg.Registry
		for _, opt := range cfg.RemoteOptions {
			opt(&o)
		}
		c, err := server.Dial(cfg.Addr, o)
		if err != nil {
			return nil, err
		}
		return &RemoteSession{c: c}, nil

	case Sharded:
		if cfg.Schema == nil {
			return nil, fmt.Errorf("relmerge: Open(%v) requires Schema", cfg.Backend)
		}
		if cfg.Shards < 1 {
			return nil, fmt.Errorf("relmerge: Open(%v) requires Shards >= 1 (got %d)", cfg.Backend, cfg.Shards)
		}
		r, err := shard.Open(cfg.Schema, shard.Config{
			Shards:        cfg.Shards,
			Registry:      cfg.Registry,
			WALDir:        cfg.DurableDir,
			WALOpts:       wal.Options{Policy: cfg.Sync},
			EngineOptions: cfg.EngineOptions,
		})
		if err != nil {
			return nil, err
		}
		sess := NewShardedSession(r)
		sess.advStop = startAdvisor(sess.target, cfg.Advisor)
		return sess, nil

	case Follower:
		if cfg.Schema == nil {
			return nil, fmt.Errorf("relmerge: Open(%v) requires Schema (the primary's serving schema)", cfg.Backend)
		}
		if cfg.Addr == "" {
			return nil, fmt.Errorf("relmerge: Open(%v) requires Addr (the primary to replicate from)", cfg.Backend)
		}
		if cfg.DurableDir == "" {
			return nil, fmt.Errorf("relmerge: Open(%v) requires DurableDir (the local log is the replica state)", cfg.Backend)
		}
		opts := append([]EngineOption{}, cfg.EngineOptions...)
		if cfg.Registry != nil {
			opts = append(opts, WithEngineRegistry(cfg.Registry))
		}
		opts = append(opts, WithDurability(cfg.DurableDir, cfg.Sync), AsReplica())
		eng, err := OpenEngine(cfg.Schema, opts...)
		if err != nil {
			return nil, err
		}
		f, err := repl.Open(cfg.Addr, eng, repl.Options{
			PollInterval: cfg.PollInterval,
			Registry:     cfg.Registry,
		})
		if err != nil {
			eng.Close()
			return nil, err
		}
		return NewFollowerSession(f), nil
	}
	return nil, fmt.Errorf("relmerge: Open: unknown backend %v", cfg.Backend)
}
