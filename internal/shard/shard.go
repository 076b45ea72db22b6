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
//     owning shard (two-step probe: hash the referenced key, Fetch on the
//     owner's published version), through a per-shard read-through cache of
//     referenced keys that delete/update invalidate;
//   - a restrict probe that finds no local referencing tuple asks every
//     other shard's referencing index.
//
// Concurrency control above the shards is two-level. A router-wide RWMutex
// (gmu) admits single-shard writes shared and serializes cross-shard
// batches, transaction control, and checkpoints exclusively. Per-IND "edge"
// RWMutexes order foreign-key checks across shards, which no shard's own
// writer mutex can: an insert into the referencing side holds the edge shared
// while its probe and publish happen; a delete on the referenced side holds
// it exclusively — so a cross-shard foreign-key check and the delete that
// would falsify it cannot interleave.
// Relations untouched by any dependency take no router locks at all, which
// is what lets independent shard-local writes scale with the shard count.
//
// Cross-shard batches are all-or-nothing: the batch splits into per-shard
// sub-batches, every involved shard prevalidates its sub-batch against a
// router-held pending overlay (so in-batch inserts and deletes on other
// shards are visible to the checks), and only then do the shards apply. A
// batch therefore validates set-wise across shards: the relative order of
// ops that land on different shards does not affect its outcome. After
// prevalidation only log-device failures can interrupt the applies; an
// interrupted apply is compensated with inverse operations so no partial
// batch survives.
package shard

import (
	"fmt"
	"path/filepath"
	"sort"
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
	// CacheSize bounds each shard's read-through cache of remote referenced
	// keys (entries). Default 4096; negative disables the cache.
	CacheSize int
}

// relMeta is the router's per-relation positional metadata: enough to
// compute a tuple's encoded primary key (the partitioning input) without
// asking any shard.
type relMeta struct {
	name  string
	hdr   *relation.Relation
	pkPos []int
	arity int
}

func (m *relMeta) pkOf(tup relation.Tuple) string {
	return tup.Project(m.pkPos).EncodeKey()
}

// edgeReq is one per-IND router lock request of a precomputed plan.
type edgeReq struct {
	mu    *sync.RWMutex
	write bool
}

// Router fronts the shard engines behind a single Session-shaped API.
type Router struct {
	schema *schema.Schema
	shards []*engine.DB
	meta   map[string]*relMeta

	// gmu: single-shard writes hold it shared; cross-shard batches,
	// transaction control, and checkpoints hold it exclusively. Reads take
	// nothing.
	gmu sync.RWMutex
	// Per-IND edge locks and the per-relation plans over them, sorted by the
	// dependency's canonical key so concurrent plans cannot deadlock. The
	// mode maps (edge key -> write) back the plans and let batches union
	// per-op plans write-wins.
	edges      map[string]*sync.RWMutex
	insertMode map[string]map[string]bool // outgoing edges, shared
	removeMode map[string]map[string]bool // incoming edges, exclusive
	updateMode map[string]map[string]bool // union, write-wins
	insertPlan map[string][]edgeReq
	removePlan map[string][]edgeReq
	updatePlan map[string][]edgeReq

	// pending is the active cross-shard batch's overlay. Written only while
	// gmu is held exclusively; probe hooks read it either on the goroutine
	// holding gmu (cross-shard prevalidate/apply) or under gmu shared, when
	// it is always nil.
	pending *overlay

	caches  []*probeCache // per calling shard
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
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	r := &Router{
		shards:  make([]*engine.DB, cfg.Shards),
		caches:  make([]*probeCache, cfg.Shards),
		m:       newRouterMetrics(cfg.Registry, cfg.Name),
		durable: cfg.WALDir != "",
	}
	r.bindSchema(s)
	for i := range r.caches {
		r.caches[i] = newProbeCache(cfg.CacheSize)
	}
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
			Referenced: func(ind schema.IND, key string) (bool, error) {
				return r.probeReferenced(self, ind, key), nil
			},
			Referencing: func(ind schema.IND, refKey string) (bool, error) {
				return r.probeReferencing(self, ind, refKey), nil
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
				for _, db := range r.shards {
					db.Close()
				}
				return nil, fmt.Errorf("%w: shards recovered mixed designs (shard 0 and shard %d disagree); a migration was interrupted mid-rollout", engine.ErrRecovery, i+1)
			}
		}
		if first != sdl.PrintSchema(s) {
			r.bindSchema(r.shards[0].Schema)
		}
		if err := r.validateINDs(); err != nil {
			for _, db := range r.shards {
				db.Close()
			}
			return nil, err
		}
	}
	return r, nil
}

// buildEdgePlans allocates one RWMutex per inclusion dependency and
// precomputes each relation's router-level lock plan over them: insert holds
// its outgoing edges shared (the cross-shard FK probe must not race the
// referenced row's delete), delete holds its incoming edges exclusive, update
// the write-wins union. Plans are sorted by the dependency's canonical key, so
// two plans always request their common edges in the same order.
func (r *Router) buildEdgePlans() {
	for _, ind := range r.schema.INDs {
		if _, ok := r.edges[ind.Key()]; !ok {
			r.edges[ind.Key()] = &sync.RWMutex{}
		}
	}
	for _, rs := range r.schema.Relations {
		name := rs.Name
		ins := map[string]bool{} // edge key -> write
		rem := map[string]bool{}
		for _, ind := range r.schema.INDs {
			if ind.Left == name {
				if _, ok := ins[ind.Key()]; !ok {
					ins[ind.Key()] = false
				}
			}
			if ind.Right == name {
				rem[ind.Key()] = true
			}
		}
		upd := map[string]bool{}
		for k, w := range ins {
			upd[k] = upd[k] || w
		}
		for k, w := range rem {
			upd[k] = upd[k] || w
		}
		r.insertMode[name], r.removeMode[name], r.updateMode[name] = ins, rem, upd
		r.insertPlan[name] = r.planOf(ins)
		r.removePlan[name] = r.planOf(rem)
		r.updatePlan[name] = r.planOf(upd)
	}
}

func (r *Router) planOf(modes map[string]bool) []edgeReq {
	keys := make([]string, 0, len(modes))
	for k := range modes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	plan := make([]edgeReq, len(keys))
	for i, k := range keys {
		plan[i] = edgeReq{mu: r.edges[k], write: modes[k]}
	}
	return plan
}

// lockEdges acquires a precomputed edge plan and returns its release.
func lockEdges(plan []edgeReq) func() {
	for _, e := range plan {
		if e.write {
			e.mu.Lock()
		} else {
			e.mu.RLock()
		}
	}
	return func() {
		for i := len(plan) - 1; i >= 0; i-- {
			if plan[i].write {
				plan[i].mu.Unlock()
			} else {
				plan[i].mu.RUnlock()
			}
		}
	}
}

// batchEdges unions the edge plans of a batch's operations (write-wins,
// canonical order), for single-shard batches running under gmu shared.
func (r *Router) batchEdges(ops []engine.BatchOp) []edgeReq {
	modes := map[string]bool{}
	for _, op := range ops {
		var src map[string]bool
		switch op.Kind {
		case engine.BatchInsert:
			src = r.insertMode[op.Relation]
		case engine.BatchDelete:
			src = r.removeMode[op.Relation]
		case engine.BatchUpdate:
			src = r.updateMode[op.Relation]
		}
		for k, w := range src {
			modes[k] = modes[k] || w
		}
	}
	return r.planOf(modes)
}

// Shards returns the partition count.
func (r *Router) Shards() int { return len(r.shards) }

// Shard exposes one partition engine (read-only uses: views, recovery info,
// tests). Mutating a shard engine directly bypasses the router's
// cross-partition coordination.
func (r *Router) Shard(i int) *engine.DB { return r.shards[i] }

// Recovered aggregates the shard engines' recovery info.
func (r *Router) Recovered() RecoveryInfo { return r.rec }

// Durable reports whether the shards were opened with write-ahead logs.
func (r *Router) Durable() bool { return r.durable }

// ShardOf returns the partition owning the encoded primary key — exported so
// benchmarks and tests can place keys deliberately.
func (r *Router) ShardOf(encodedKey string) int {
	return int(HashKey(encodedKey) % uint64(len(r.shards)))
}

// validateINDs re-checks every inclusion dependency across the recovered
// shards: per-shard recovery can only validate shard-local invariants, so
// the cross-shard halves of the paper's constraint set are swept here, over
// the shards' published versions.
func (r *Router) validateINDs() error {
	for _, ind := range r.schema.INDs {
		m := r.meta[ind.Left]
		leftPos := m.hdr.Positions(ind.LeftAttrs)
		keyBased := ind.KeyBased(r.schema)
		for _, db := range r.shards {
			var dangling relation.Tuple
			err := db.Scan(ind.Left, nil, func(tup relation.Tuple) {
				if dangling != nil {
					return
				}
				fk := tup.Project(leftPos)
				if !fk.IsTotal() {
					return
				}
				if keyBased {
					key := orderAsRightKey(r.schema, ind, fk)
					if !r.shards[r.ShardOf(key)].HasKey(ind.Right, key) {
						dangling = tup
					}
					return
				}
				for _, peer := range r.shards {
					if peer.HasReferenced(ind, fk.EncodeKey()) {
						return
					}
				}
				dangling = tup
			})
			if err != nil {
				return err
			}
			if dangling != nil {
				return fmt.Errorf("%w: recovered shards violate %s (dangling %s tuple %v)",
					engine.ErrRecovery, ind, ind.Left, dangling)
			}
		}
	}
	return nil
}

// orderAsRightKey encodes a LeftAttrs projection in the referenced
// relation's primary-key attribute order (the shard-routing and pk-probe
// encoding), mirroring the engine's orderAsKey.
func orderAsRightKey(s *schema.Schema, ind schema.IND, fk relation.Tuple) string {
	rs := s.Scheme(ind.Right)
	ordered := make(relation.Tuple, len(rs.PrimaryKey))
	for i, ka := range rs.PrimaryKey {
		for j, ra := range ind.RightAttrs {
			if ra == ka {
				ordered[i] = fk[j]
			}
		}
	}
	return ordered.EncodeKey()
}
