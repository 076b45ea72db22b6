package shard

// HashKey maps an encoded primary key to its partition-routing hash: 64-bit
// FNV-1a followed by a murmur-style avalanche finalizer. The finalizer
// matters because shard counts are routinely powers of two and the router
// takes the hash modulo the count: raw FNV-1a is linear in its low bits
// (hash mod 2 is just the parity of the byte sum), so without mixing, key
// families that differ in one even-valued byte — "d-7" vs "r-7" — would
// always co-locate under 2, 4, or 8 shards, silently removing every
// cross-shard edge.
//
// The function is written out rather than composed from hash/fnv so the
// partitioning contract is explicit and frozen: the same key must route to
// the same shard across process restarts, architectures, and Go releases,
// because a durable deployment re-opens its per-shard logs by position.
// TestHashKeyGolden pins the exact values; changing this function is a
// data-migration event, not a refactor.
func HashKey(key string) uint64 { return hashKey(key) }

// hashKey is HashKey over either key representation, so the router can hash
// a key encoded into a stack buffer without making a string of it.
func hashKey[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// fmix64 (murmur3): full avalanche, so every input bit reaches the low
	// bits the modulo actually uses.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
