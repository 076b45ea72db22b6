package shard

import "repro/internal/obs"

// Metric series names of the router. Cross-shard probe traffic is the cost
// relbench's sharded-write-base reports: remote probes are the two-step
// lookups that left the calling shard, overlay hits the ones a cross-shard
// batch's pending overlay answered.
const (
	metricRemoteProbes  = "shard.probe.remote"
	metricOverlayHits   = "shard.probe.overlay_hits"
	metricCrossBatches  = "shard.batch.cross"
	metricLocalBatches  = "shard.batch.local"
	metricCompensations = "shard.batch.compensations"
	metricRoutedOps     = "shard.ops.routed"
)

type routerMetrics struct {
	remoteProbes  *obs.Counter
	overlayHits   *obs.Counter
	crossBatches  *obs.Counter
	localBatches  *obs.Counter
	compensations *obs.Counter
	routedOps     *obs.Counter
}

func newRouterMetrics(r *obs.Registry, name string) *routerMetrics {
	l := obs.L("router", name)
	return &routerMetrics{
		remoteProbes:  r.Counter(metricRemoteProbes, l),
		overlayHits:   r.Counter(metricOverlayHits, l),
		crossBatches:  r.Counter(metricCrossBatches, l),
		localBatches:  r.Counter(metricLocalBatches, l),
		compensations: r.Counter(metricCompensations, l),
		routedOps:     r.Counter(metricRoutedOps, l),
	}
}
