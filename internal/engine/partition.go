package engine

import (
	"context"

	"repro/internal/schema"
)

// This file is the engine's side of horizontal partitioning (internal/shard).
// A partitioned engine holds one hash-slice of every relation, so a local
// index miss during an inclusion-dependency check is not authoritative: the
// referenced (or referencing) tuple may live in another partition. The shard
// router installs ShardProbes after Open; until then a partition engine
// treats cross-partition checks as the router's responsibility (recovery and
// bulk loads replay writes the router already validated).

// ShardProbes are the cross-partition constraint hooks a shard router
// installs on each partition engine. The engine calls them only as a
// fallback, after the operation's own staged view missed, and still
// constructs the resulting ConstraintViolation itself — so violation kinds,
// relations, and ops are identical whether a constraint fails locally or
// across shards.
type ShardProbes struct {
	// Referenced reports whether the referenced side of ind holds the probed
	// value beyond this partition. For a key-based dependency, key is the
	// referenced relation's encoded primary key (the LeftAttrs value put in
	// that key's attribute order); otherwise it is the encoded RightAttrs
	// value probed against the prebuilt secondary index.
	Referenced func(ind schema.IND, key string) (bool, error)
	// Referencing reports whether any tuple referencing the encoded
	// RightAttrs value refKey survives beyond this partition (the restrict
	// probe of deletes and updates on the referenced side).
	Referencing func(ind schema.IND, refKey string) (bool, error)
}

// WithPartition marks the engine as holding one shard of a partitioned
// database. Cross-relation inclusion checks that miss locally defer to the
// ShardProbes (or pass, before SetShardProbes installs them), and recovery
// re-validation skips inclusion dependencies — a partition's local state is
// not expected to satisfy them on its own.
func WithPartition() Option {
	return func(c *openConfig) { c.partition = true }
}

// SetShardProbes installs the router's cross-partition hooks. Call once,
// after Open and before serving traffic.
func (db *DB) SetShardProbes(p ShardProbes) { db.probes.Store(&p) }

// probeReferenced resolves a foreign-key existence check that missed the
// local staged view. Non-partition engines answer false (the local miss is
// final); partition engines ask the router, or pass during the bootstrap
// window before the probes are installed (recovery replays writes that were
// fully validated when first applied). Only here does the probe key become a
// string: the router routes and caches by it.
func (db *DB) probeReferenced(ip *indPlan, key []byte) (bool, error) {
	if !db.partition {
		return false, nil
	}
	p := db.probes.Load()
	if p == nil || p.Referenced == nil {
		return true, nil
	}
	return p.Referenced(ip.ind, string(key))
}

// probeReferencing resolves a restrict check whose local referencing bucket
// was empty: false means no surviving reference anywhere, so the delete (or
// update) may proceed.
func (db *DB) probeReferencing(ip *indPlan, refKey []byte) (bool, error) {
	if !db.partition {
		return false, nil
	}
	p := db.probes.Load()
	if p == nil || p.Referencing == nil {
		return false, nil
	}
	return p.Referencing(ip.ind, string(refKey))
}

// HasKey reports whether the current published version of the relation holds
// a tuple under the encoded primary key. Lock-free (one snapshot pin), which
// is what lets a shard probe another from inside its own write without
// waiting on the other's writer mutex.
func (db *DB) HasKey(name, encodedKey string) bool {
	snap := db.current.Load()
	t := snap.bind.tables[name]
	if t == nil {
		return false
	}
	_, ok := snap.tables[t.ord].pk.Get(encodedKey)
	return ok
}

// HasReferenced reports whether the current published version of ind.Right
// holds the encoded RightAttrs value — the referenced-side probe for
// non-key-based dependencies (key-based ones use HasKey with the pk-ordered
// encoding). Lock-free.
func (db *DB) HasReferenced(ind schema.IND, valKey string) bool {
	snap := db.current.Load()
	ip := snap.bind.planOf(ind)
	if ip == nil {
		return false
	}
	v := snap.tables[ip.right.ord]
	if ip.keyBased {
		_, ok := v.pk.Get(valKey)
		return ok
	}
	rows, _ := v.sec[ip.rightSlot].Get(valKey)
	return len(rows) > 0
}

// ReferencingKeys returns the encoded primary keys of every tuple in the
// current published version of ind.Left whose LeftAttrs projection equals
// refKey. The router filters them against a cross-shard batch's pending
// deletes before calling a reference "surviving". The result is the index's
// own bucket: read it, do not change it. Lock-free.
func (db *DB) ReferencingKeys(ind schema.IND, refKey string) []string {
	snap := db.current.Load()
	ip := snap.bind.planOf(ind)
	if ip == nil {
		return nil
	}
	v := snap.tables[ip.left.ord]
	if ip.leftSlot == pkSlot {
		// LeftAttrs is the primary key: refKey names the one candidate row.
		if _, ok := v.pk.Get(refKey); ok {
			return []string{refKey}
		}
		return nil
	}
	rows, _ := v.sec[ip.leftSlot].Get(refKey)
	return rows
}

// PrevalidateBatchCtx runs a mixed batch through exactly the checks of
// ApplyBatchCtx — same writer mutex, same staged-view semantics, same error
// text — and then drops the staged transaction instead of publishing it.
// Nothing is logged, published, or counted (cost counters are suppressed so
// a prevalidate-then-apply pair accounts each op once); constraint
// violations still count as violations.
//
// This is phase one of the shard router's cross-shard batch protocol: every
// involved shard prevalidates its sub-batch before any shard applies one, so
// a violation on the last shard cannot strand committed effects on the
// first.
func (db *DB) PrevalidateBatchCtx(ctx context.Context, ops []BatchOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ops) == 0 {
		return nil
	}
	if err := db.lockWriterCtx(ctx); err != nil {
		return err
	}
	defer db.wmu.Unlock()
	tx := db.beginWrite()
	tx.dry = true
	var eff effects
	return db.stageBatch(tx, ops, &eff)
}
