package shard

import (
	"bytes"

	"repro/internal/relation"
	"repro/internal/schema"
)

// overlay is the pending cross-shard batch, indexed for probe lookups: the
// net tuples the batch introduces and the primary keys it removes, per
// relation. While a cross-shard batch holds the router lock exclusively,
// every shard's staging sees the whole batch through this overlay, which is
// what makes the batch validate set-wise: an insert on shard A can satisfy a
// foreign key checked on shard B, and a delete on shard B is visible to
// shard A's restrict checks, regardless of where either op sits in the
// batch.
type overlay struct {
	ins map[string]map[string]relation.Tuple // relation -> encoded pk -> tuple
	del map[string]map[string]bool           // relation -> encoded pk -> removed
}

func newOverlay() *overlay {
	return &overlay{
		ins: make(map[string]map[string]relation.Tuple),
		del: make(map[string]map[string]bool),
	}
}

func (o *overlay) addIns(rel, pk string, tup relation.Tuple) {
	m := o.ins[rel]
	if m == nil {
		m = make(map[string]relation.Tuple)
		o.ins[rel] = m
	}
	m[pk] = tup
}

func (o *overlay) addDel(rel, pk string) {
	m := o.del[rel]
	if m == nil {
		m = make(map[string]bool)
		o.del[rel] = m
	}
	m[pk] = true
}

// probeReferenced answers a shard engine's cross-partition foreign-key
// question: does the referenced relation hold a row with this key? For
// key-based dependencies key is the referenced relation's encoded primary
// key (in pk attribute order), so ownership is decidable and the answer
// comes from one two-step probe of the owning shard. For non-key
// dependencies the referenced value is not a routing key, so every sibling
// shard's secondary index is asked.
//
// The calling shard's own state is never consulted here: the engine probes
// only after missing in its local staged view, which is authoritative for
// rows the shard owns — answering from the shard's published version would
// resurrect rows a staged sub-batch already deleted.
func (r *Router) probeReferenced(self int, c *schema.INDCheck, key []byte) bool {
	if !c.KeyBased {
		// Value-based: ask each sibling's referenced-side index directly.
		// The pending overlay is keyed by primary key, not by referenced
		// value, so it cannot answer here; cross-shard batches are therefore
		// conservative for value-based dependencies (see DESIGN.md).
		for i, db := range r.shards {
			if i == self {
				continue
			}
			r.m.remoteProbes.Inc()
			if db.View().HasReferenced(c.IND, key) {
				return true
			}
		}
		return false
	}
	if p := r.pending; p != nil {
		if _, ok := p.ins[c.IND.Right][string(key)]; ok {
			r.m.overlayHits.Inc()
			return true
		}
		if p.del[c.IND.Right][string(key)] {
			r.m.overlayHits.Inc()
			return false
		}
	}
	owner := r.shardOf(key)
	if owner == self {
		// The local staged view already missed, and it is the truth for
		// keys this shard owns.
		return false
	}
	r.m.remoteProbes.Inc()
	return r.shards[owner].View().HasReferenced(c.IND, key)
}

// probeReferencing answers the referenced side's restrict question: after
// this shard found no local referencing tuple, does one exist elsewhere?
// refKey is the encoded projection of the disappearing row onto the
// dependency's referenced attributes.
//
// The pending overlay is consulted first, in two directions. If the batch
// re-introduces a referenced row carrying the same value, the value
// survives the batch and nothing dangles — this is what preserves the
// engine's "referenced attributes unchanged" update semantics when a
// key-moving update is decomposed into delete+insert across shards. If the
// batch inserts a referencing row with the value, the delete must restrict
// even though no shard has published that row yet.
func (r *Router) probeReferencing(self int, c *schema.INDCheck, refKey []byte) bool {
	if p := r.pending; p != nil {
		var kb [64]byte
		for _, tup := range p.ins[c.IND.Right] {
			if len(tup) == r.meta[c.IND.Right].arity && bytes.Equal(tup.AppendKeyAt(kb[:0], c.RightPos), refKey) {
				r.m.overlayHits.Inc()
				return false
			}
		}
		for _, tup := range p.ins[c.IND.Left] {
			if len(tup) == r.meta[c.IND.Left].arity && tup.TotalAt(c.LeftPos) && bytes.Equal(tup.AppendKeyAt(kb[:0], c.LeftPos), refKey) {
				r.m.overlayHits.Inc()
				return true
			}
		}
	}
	for i, db := range r.shards {
		if i == self {
			continue
		}
		r.m.remoteProbes.Inc()
		for _, k := range db.ReferencingKeys(c.IND, refKey) {
			if r.pending == nil || !r.pending.del[c.IND.Left][k] {
				return true
			}
		}
	}
	return false
}
