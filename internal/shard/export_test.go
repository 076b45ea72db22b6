package shard

// ShardOf returns the partition owning an encoded primary key, so tests can
// place keys deliberately.
func (r *Router) ShardOf(encodedKey string) int { return r.shardOf([]byte(encodedKey)) }

// Shards returns the partition count.
func (r *Router) Shards() int { return len(r.shards) }

// ProbeStats is a point-in-time snapshot of the router's cross-shard
// counters, read from its registry handles, so tests can assert that a probe
// did or did not leave the shard.
type ProbeStats struct {
	RemoteProbes  int64 // existence probes answered by another shard
	OverlayHits   int64 // probes answered from a cross-shard batch's overlay
	CrossBatches  int64 // batches that spanned more than one shard
	Compensations int64 // committed sub-batches undone after a log failure
}

func (r *Router) ProbeStats() ProbeStats {
	return ProbeStats{
		RemoteProbes:  r.m.remoteProbes.Value(),
		OverlayHits:   r.m.overlayHits.Value(),
		CrossBatches:  r.m.crossBatches.Value(),
		Compensations: r.m.compensations.Value(),
	}
}
