package shard

import "repro/internal/obs"

// Metric series names of the router. Cross-shard probe traffic is the cost
// relbench's sharded-write-base reports: remote probes are the two-step lookups
// that left the calling shard, cache hits are the ones the read-through
// cache absorbed.
const (
	metricRemoteProbes  = "shard.probe.remote"
	metricCacheHits     = "shard.probe.cache_hits"
	metricOverlayHits   = "shard.probe.overlay_hits"
	metricCrossBatches  = "shard.batch.cross"
	metricLocalBatches  = "shard.batch.local"
	metricCompensations = "shard.batch.compensations"
	metricInvalidations = "shard.cache.invalidations"
	metricRoutedOps     = "shard.ops.routed"
)

type routerMetrics struct {
	remoteProbes  *obs.Counter
	cacheHits     *obs.Counter
	overlayHits   *obs.Counter
	crossBatches  *obs.Counter
	localBatches  *obs.Counter
	compensations *obs.Counter
	invalidations *obs.Counter
	routedOps     *obs.Counter
}

func newRouterMetrics(r *obs.Registry, name string) *routerMetrics {
	l := obs.L("router", name)
	return &routerMetrics{
		remoteProbes:  r.Counter(metricRemoteProbes, l),
		cacheHits:     r.Counter(metricCacheHits, l),
		overlayHits:   r.Counter(metricOverlayHits, l),
		crossBatches:  r.Counter(metricCrossBatches, l),
		localBatches:  r.Counter(metricLocalBatches, l),
		compensations: r.Counter(metricCompensations, l),
		invalidations: r.Counter(metricInvalidations, l),
		routedOps:     r.Counter(metricRoutedOps, l),
	}
}

// ProbeStats is a point-in-time snapshot of the router's cross-shard probe
// counters, exposed so tests can assert that a probe did or did not leave
// the shard without scraping the registry.
type ProbeStats struct {
	// RemoteProbes counts existence probes answered by another shard.
	RemoteProbes int64
	// CacheHits counts probes absorbed by the read-through cache.
	CacheHits int64
	// OverlayHits counts probes answered from a cross-shard batch's pending
	// overlay.
	OverlayHits int64
	// CrossBatches counts batches that spanned more than one shard.
	CrossBatches int64
	// Compensations counts applied sub-batches undone after a log-device
	// failure mid cross-shard apply.
	Compensations int64
}

// ProbeStats returns the router's cumulative cross-shard probe counters.
func (r *Router) ProbeStats() ProbeStats {
	return ProbeStats{
		RemoteProbes:  r.m.remoteProbes.Value(),
		CacheHits:     r.m.cacheHits.Value(),
		OverlayHits:   r.m.overlayHits.Value(),
		CrossBatches:  r.m.crossBatches.Value(),
		Compensations: r.m.compensations.Value(),
	}
}
