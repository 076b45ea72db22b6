package attrset

import "repro/internal/obs"

// CacheStats is a point-in-time copy of an Engine's cache traffic: hit, miss,
// and eviction totals for the two LRU caches, their current sizes, and the
// total number of attribute names interned across the cached indexes. The
// steady-state regime of the reasoning packages (the same dependency set
// queried over and over) shows up here as a closure hit rate near 1.
type CacheStats struct {
	IndexHits        int64
	IndexMisses      int64
	IndexEvictions   int64
	ClosureHits      int64
	ClosureMisses    int64
	ClosureEvictions int64
	IndexCacheSize   int
	ClosureCacheSize int
	InternedNames    int
}

// CacheStats returns a snapshot of the engine's cache counters. The closure
// totals are exact sums of the per-stripe atomic counters; hit/miss/eviction
// arithmetic (misses − evictions = cache size, in the steady state with no
// racing fills) holds across the sum even though each stripe is read at a
// slightly different instant.
func (e *Engine) CacheStats() CacheStats {
	st := CacheStats{
		IndexHits:      e.indexHits.Load(),
		IndexMisses:    e.indexMisses.Load(),
		IndexEvictions: e.indexEvictions.Load(),
	}
	for i := range e.closures {
		s := &e.closures[i]
		st.ClosureHits += s.hits.Load()
		st.ClosureMisses += s.misses.Load()
		st.ClosureEvictions += s.evictions.Load()
		s.mu.Lock()
		st.ClosureCacheSize += s.cache.len()
		s.mu.Unlock()
	}
	e.mu.Lock()
	st.IndexCacheSize = e.indexes.len()
	e.indexes.each(func(ix *Index) { st.InternedNames += ix.in.Len() })
	e.mu.Unlock()
	return st
}

// Metric names registered per engine under its engine=<name> label.
const (
	metricIndexHits        = "attrset.index_hits"
	metricIndexMisses      = "attrset.index_misses"
	metricIndexEvictions   = "attrset.index_evictions"
	metricClosureHits      = "attrset.closure_hits"
	metricClosureMisses    = "attrset.closure_misses"
	metricClosureEvictions = "attrset.closure_evictions"
	metricIndexCacheSize   = "attrset.index_cache_size"
	metricClosureCacheSize = "attrset.closure_cache_size"
	metricInternedNames    = "attrset.interner_names"
)

// Register publishes the engine's cache counters into a metrics registry as
// lazily-evaluated series labeled engine=<name>: counters for hits, misses,
// and evictions of both caches, and gauges for the live cache sizes and the
// interned-name total. Values are read at snapshot time, so one registration
// tracks the engine for its lifetime.
func (e *Engine) Register(r *obs.Registry, name string) {
	l := obs.L("engine", name)
	counter := func(metric string, read func(CacheStats) int64) {
		r.CounterFunc(metric, func() float64 { return float64(read(e.CacheStats())) }, l)
	}
	gauge := func(metric string, read func(CacheStats) int) {
		r.GaugeFunc(metric, func() float64 { return float64(read(e.CacheStats())) }, l)
	}
	counter(metricIndexHits, func(s CacheStats) int64 { return s.IndexHits })
	counter(metricIndexMisses, func(s CacheStats) int64 { return s.IndexMisses })
	counter(metricIndexEvictions, func(s CacheStats) int64 { return s.IndexEvictions })
	counter(metricClosureHits, func(s CacheStats) int64 { return s.ClosureHits })
	counter(metricClosureMisses, func(s CacheStats) int64 { return s.ClosureMisses })
	counter(metricClosureEvictions, func(s CacheStats) int64 { return s.ClosureEvictions })
	gauge(metricIndexCacheSize, func(s CacheStats) int { return s.IndexCacheSize })
	gauge(metricClosureCacheSize, func(s CacheStats) int { return s.ClosureCacheSize })
	gauge(metricInternedNames, func(s CacheStats) int { return s.InternedNames })
}
