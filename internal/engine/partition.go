package engine

import "repro/internal/schema"

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
// across shards. Probe keys are the engine's scratch encoding: a hook reads
// them during the call and keeps no reference.
type ShardProbes struct {
	// Referenced reports whether the referenced side of ind holds the probed
	// value beyond this partition. For a key-based dependency, key is the
	// referenced relation's encoded primary key (the LeftAttrs value put in
	// that key's attribute order); otherwise it is the encoded RightAttrs
	// value probed against the prebuilt secondary index.
	Referenced func(c *schema.INDCheck, key []byte) bool
	// Referencing reports whether any tuple referencing the encoded
	// RightAttrs value refKey survives beyond this partition (the restrict
	// probe of deletes and updates on the referenced side).
	Referencing func(c *schema.INDCheck, refKey []byte) bool
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
// fully validated when first applied).
//
// The key reaches the hook as a copy in db.probeKey: handing a hook the
// writeTx's own scratch buffer would let it escape, and move every write
// transaction of every engine to the heap.
func (db *DB) probeReferenced(ip *indPlan, key []byte) bool {
	if !db.partition {
		return false
	}
	p := db.probes.Load()
	if p == nil || p.Referenced == nil {
		return true
	}
	db.probeKey = append(db.probeKey[:0], key...)
	return p.Referenced(ip.INDCheck, db.probeKey)
}

// probeReferencing resolves a restrict check whose local referencing bucket
// was empty: false means no surviving reference anywhere, so the delete (or
// update) may proceed.
func (db *DB) probeReferencing(ip *indPlan, refKey []byte) bool {
	if !db.partition {
		return false
	}
	p := db.probes.Load()
	if p == nil || p.Referencing == nil {
		return false
	}
	db.probeKey = append(db.probeKey[:0], refKey...)
	return p.Referencing(ip.INDCheck, db.probeKey)
}

// HasReferenced reports whether the pinned version of ind.Right holds the
// probed value: for a key-based dependency its encoded primary key, else the
// encoded RightAttrs value. Lock-free, so a shard can probe another's fresh
// View from inside its own write.
func (v *View) HasReferenced(ind schema.IND, valKey []byte) bool {
	ip := v.snap.bind.planOf(ind)
	if ip == nil {
		return false
	}
	tv := v.snap.tables[ip.right.ord]
	if ip.KeyBased {
		_, ok := tv.pk.GetBytes(valKey)
		return ok
	}
	rows, _ := tv.sec[ip.rightSlot].GetBytes(valKey)
	return len(rows) > 0
}

// ReferencingKeys returns the encoded primary keys of every tuple in the
// current published version of ind.Left whose LeftAttrs projection equals
// refKey. The router filters them against a cross-shard batch's pending
// deletes before calling a reference "surviving". The result is the index's
// own bucket: read it, do not change it. Lock-free.
func (db *DB) ReferencingKeys(ind schema.IND, refKey []byte) []string {
	snap := db.current.Load()
	ip := snap.bind.planOf(ind)
	if ip == nil {
		return nil
	}
	v := snap.tables[ip.left.ord]
	if ip.leftSlot == pkSlot {
		// LeftAttrs is the primary key: refKey names the one candidate row.
		if _, ok := v.pk.GetBytes(refKey); ok {
			return []string{string(refKey)}
		}
		return nil
	}
	rows, _ := v.sec[ip.leftSlot].GetBytes(refKey)
	return rows
}
