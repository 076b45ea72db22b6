// Package shard implements horizontal partitioning for the engine: a Router
// fronts N independent engine instances — each with its own writer mutex,
// MVCC version chain, and WAL directory — and partitions tuples by a
// deterministic hash of their primary key. The Router exposes the same
// operational surface as a single engine (it satisfies the relmerge.Session
// method set through the pkg/relmerge wrapper), so clients, workload
// drivers, and conformance tests run unchanged.
//
// The interesting problem is the paper's own: key-based inclusion
// dependencies whose two sides land on different shards. A shard engine
// validates what it can locally and defers cross-partition existence
// questions to probe hooks (engine.ShardProbes) baked per shard at Open:
//
//   - a foreign-key probe that misses the local partition asks the key's
//     owning shard (two-step probe: hash the referenced key, look it up in
//     the owner's published version);
//   - a restrict probe that finds no local referencing tuple asks every
//     other shard's referencing index.
//
// Probes read other shards' published versions and take no lock. Above the
// shards there is one lock, the router RWMutex gmu, and one bit per relation
// decides how a write holds it: whether the relation is the referenced side
// of some inclusion dependency. Single-shard inserts and insert batches, and
// deletes and updates on unreferenced relations, hold gmu shared and run
// concurrently, each under its own shard's writer mutex. Deletes and updates
// on a referenced relation hold gmu exclusively, as does anything that spans
// shards, transaction control, checkpoints and migrations. So a cross-shard
// foreign-key probe never interleaves with the delete that would falsify
// it, nor a restrict probe with the insert that would falsify it.
//
// Cross-shard batches are all-or-nothing and validate each op once: the
// batch splits into per-shard sub-batches, every involved shard stages its
// sub-batch (every check runs, nothing is published) against a router-held
// pending overlay, so in-batch inserts and deletes on other shards are
// visible to the checks, and only when all have staged do the shards commit,
// in shard order. A batch therefore validates set-wise across shards: the
// relative order of ops that land on different shards does not affect its
// outcome. Once staged, only log-device failures can stop a commit; the
// sub-batches committed before one are compensated with inverse operations
// so no partial batch survives.
package shard

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/wal"
)

// Config configures Open. The zero value of every field is usable; only
// Shards must be positive.
type Config struct {
	// Shards is the partition count (required, ≥ 1).
	Shards int
	// Registry receives the router's and every shard engine's metric series;
	// nil allocates a private one.
	Registry *obs.Registry
	// Name is the metric label of the router (router=<name>) and the prefix
	// of the per-shard engine labels (db=<name><i>). Default "shard".
	Name string
	// WALDir, when set, makes every shard durable under its own
	// subdirectory <WALDir>/shard-<i>. Recovery is per shard; the router
	// re-validates cross-shard inclusion dependencies after all shards have
	// recovered.
	WALDir string
	// WALOpts tunes the per-shard logs (fsync policy, segment size,
	// failpoints). Ignored unless WALDir is set.
	WALOpts wal.Options
	// EngineOptions are appended to every shard engine's Open options,
	// before the router's own (partitioning, registry, name, durability), so
	// the router's settings win on conflict.
	EngineOptions []engine.Option
}

// relMeta is the router's per-relation positional metadata: enough to
// compute a tuple's encoded primary key (the partitioning input) without
// asking any shard.
type relMeta struct {
	name  string
	hdr   *relation.Relation
	pkPos []int
	arity int
	// referenced marks the right side of some inclusion dependency: deleting
	// or updating its rows can falsify another shard's foreign-key probe, so
	// those writes hold gmu exclusively.
	referenced bool
}

// pkOf appends tup's encoded primary key to buf. Routing passes a stack
// buffer, so placing a tuple allocates nothing.
func (m *relMeta) pkOf(buf []byte, tup relation.Tuple) []byte {
	return tup.AppendKeyAt(buf, m.pkPos)
}

// Router fronts the shard engines behind a single Session-shaped API.
type Router struct {
	schema *schema.Schema
	shards []*engine.DB
	meta   map[string]*relMeta

	// gmu is the router's one lock (see the package comment for who holds
	// it shared and who exclusively). Reads take nothing.
	gmu sync.RWMutex

	// pending is the active cross-shard batch's overlay. Written only while
	// gmu is held exclusively; probe hooks read it either on the goroutine
	// holding gmu (cross-shard staging) or under gmu shared, when it is
	// always nil.
	pending *overlay

	m       *routerMetrics
	durable bool
	rec     RecoveryInfo
}

// RecoveryInfo aggregates what the shard engines reconstructed from their
// write-ahead logs.
type RecoveryInfo struct {
	// Recovered reports whether any shard's log held anything to restore.
	Recovered bool
	// ReplayedOps sums logged mutations applied during replay across shards.
	ReplayedOps int
}

// Open builds a router over cfg.Shards fresh engine instances of the schema.
// Each engine is opened in partition mode with the router's cross-shard
// probe hooks; if WALDir is set each shard recovers from (and logs to) its
// own subdirectory, and the router re-validates every inclusion dependency
// across the recovered shards before returning.
func Open(s *schema.Schema, cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: config requires Shards >= 1 (got %d)", cfg.Shards)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Name == "" {
		cfg.Name = "shard"
	}
	r := &Router{
		shards:  make([]*engine.DB, cfg.Shards),
		m:       newRouterMetrics(cfg.Registry, cfg.Name),
		durable: cfg.WALDir != "",
	}
	r.schema, r.meta = s, metaOf(s)
	for i := range r.shards {
		opts := append([]engine.Option{}, cfg.EngineOptions...)
		opts = append(opts,
			engine.WithPartition(),
			engine.WithRegistry(cfg.Registry),
			engine.WithName(fmt.Sprintf("%s%d", cfg.Name, i)),
		)
		if cfg.WALDir != "" {
			opts = append(opts, engine.WithWALOptions(filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", i)), cfg.WALOpts))
		}
		db, err := engine.Open(s, opts...)
		if err != nil {
			for j := 0; j < i; j++ {
				r.shards[j].Close()
			}
			return nil, fmt.Errorf("shard: opening shard %d/%d: %w", i+1, cfg.Shards, err)
		}
		r.shards[i] = db
		info := db.Recovered()
		r.rec.Recovered = r.rec.Recovered || info.Recovered
		r.rec.ReplayedOps += info.ReplayedOps
	}
	// Install the cross-partition hooks only now: during each shard's
	// recovery the hooks must be absent (sibling shards may not exist yet),
	// which is exactly the engine's bootstrap pass-through window.
	for i, db := range r.shards {
		self := i
		db.SetShardProbes(engine.ShardProbes{
			Referenced: func(c *schema.INDCheck, key []byte) bool {
				return r.probeReferenced(self, c, key)
			},
			Referencing: func(c *schema.INDCheck, refKey []byte) bool {
				return r.probeReferencing(self, c, refKey)
			},
		})
	}
	if r.rec.Recovered {
		// A live migration logs one schema-change record per shard, so a
		// recovered shard may come back on a LATER design than the one Open
		// was given. Adopt it — uniformly: a mix (a crash between per-shard
		// installs) is refused rather than served half-merged.
		first := sdl.PrintSchema(r.shards[0].Schema)
		for i, db := range r.shards[1:] {
			if got := sdl.PrintSchema(db.Schema); got != first {
				r.Close()
				return nil, fmt.Errorf("%w: shards recovered mixed designs (shard 0 and shard %d disagree); a migration was interrupted mid-rollout", engine.ErrRecovery, i+1)
			}
		}
		if first != sdl.PrintSchema(s) {
			r.schema, r.meta = r.shards[0].Schema, metaOf(r.shards[0].Schema)
		}
		if err := checkINDs(r.schema, r.View().views); err != nil {
			r.Close()
			return nil, fmt.Errorf("%w: recovered %v", engine.ErrRecovery, err)
		}
	}
	return r, nil
}

// Shard exposes one partition engine (read-only uses: views, recovery info,
// tests). Mutating a shard engine directly bypasses the router's
// cross-partition coordination.
func (r *Router) Shard(i int) *engine.DB { return r.shards[i] }

// Recovered aggregates the shard engines' recovery info.
func (r *Router) Recovered() RecoveryInfo { return r.rec }

// Durable reports whether the shards were opened with write-ahead logs.
func (r *Router) Durable() bool { return r.durable }

// shardOf returns the partition owning an encoded primary key.
func (r *Router) shardOf(encodedKey []byte) int {
	return int(hashKey(encodedKey) % uint64(len(r.shards)))
}

// ownerOf returns the partition owning tup's primary key.
func (r *Router) ownerOf(m *relMeta, tup relation.Tuple) int {
	var kb [64]byte
	return r.shardOf(m.pkOf(kb[:0], tup))
}

// keyOwner returns the partition owning a primary-key tuple.
func (r *Router) keyOwner(key relation.Tuple) int {
	var kb [64]byte
	return r.shardOf(key.AppendKey(kb[:0]))
}

// lockWrite takes gmu for a single-shard write: exclusively when the write
// may remove a referenced row, shared otherwise.
func (r *Router) lockWrite(excl bool) {
	if excl {
		r.gmu.Lock()
	} else {
		r.gmu.RLock()
	}
}

func (r *Router) unlockWrite(excl bool) {
	if excl {
		r.gmu.Unlock()
	} else {
		r.gmu.RUnlock()
	}
}

// checkINDs folds the IND half of design s's program, which no shard can
// check alone, over the union of views: recovered at Open, staged by Migrate.
func checkINDs(s *schema.Schema, views []*engine.View) error {
	p, err := schema.Compile(s)
	if err != nil {
		return err
	}
	return p.CheckINDs(engine.Rows(views...))
}
