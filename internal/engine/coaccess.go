package engine

import (
	"sort"
	"sync/atomic"
)

// coEdge counts join-shaped access along one IND edge Left->Right: how often a
// fetch of Left was followed (in either order) by a fetch of Right, or resolved
// a Right tuple directly through FetchWithReferences. The online advisor reads
// these counters to find hot edges worth merging.
type coEdge struct {
	left, right string
	hits        atomic.Int64
}

// CoAccessStat is one edge's counter, exported for the advisor and metrics.
type CoAccessStat struct {
	Left, Right string
	Hits        int64
}

// buildCoEdges gives every inclusion-dependency plan of b the co-access
// counter of its Left->Right edge (dependencies between the same two tables
// share one) and indexes the counters by relation pair (pairKey), in both
// directions. Counters start at zero: a migration installs a fresh binding,
// which naturally resets observation.
func buildCoEdges(b *binding) {
	b.coPairs = make(map[string]*coEdge)
	edges := make(map[string]*coEdge)
	for _, t := range b.ordered {
		for _, ip := range t.out {
			left, right := ip.left.name, ip.right.name
			e := edges[left+"->"+right]
			if e == nil {
				e = &coEdge{left: left, right: right}
				edges[left+"->"+right] = e
				b.coEdges = append(b.coEdges, e)
				b.coPairs[pairKey(left, right)] = e
				b.coPairs[pairKey(right, left)] = e
			}
			ip.edge = e
		}
	}
}

func pairKey(a, b string) string { return a + "\x00" + b }

// noteFetch records a point read of name and, if the previous point read on
// this engine touched the other side of an IND edge, bumps that edge. The
// one-deep history is deliberately coarse: it is a traffic signal, not a trace.
func (db *DB) noteFetch(b *binding, name string) {
	prev, _ := db.lastFetch.Load().(string)
	db.lastFetch.Store(name)
	if prev == "" || prev == name {
		return
	}
	if e, ok := b.coPairs[pairKey(prev, name)]; ok {
		e.hits.Add(1)
		db.countCoAccess()
	}
}

// CoAccessStats returns the per-edge co-access counters of the current design,
// sorted hottest first (ties broken by edge name for determinism).
func (db *DB) CoAccessStats() []CoAccessStat {
	bind := db.current.Load().bind
	out := make([]CoAccessStat, 0, len(bind.coEdges))
	for _, e := range bind.coEdges {
		out = append(out, CoAccessStat{Left: e.left, Right: e.right, Hits: e.hits.Load()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out
}
