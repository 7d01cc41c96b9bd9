package serve

import "nova/internal/lru"

// Cache is the size-bounded, content-addressed result cache: keys are
// the hex digests of nova.Request.CacheKey, values the marshaled Response
// bytes, and the bound is on the total payload length (see package lru
// for the sharding and eviction). Values are treated as immutable —
// callers must not modify returned slices.
type Cache struct {
	lru *lru.Cache[[]byte]
}

// NewCache returns a cache bounded to roughly maxBytes of payload.
// maxBytes <= 0 selects 64 MiB.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{lru.New(maxBytes, func(v []byte) int64 { return int64(len(v)) })}
}

// Get returns the cached bytes for key and whether they were present.
func (c *Cache) Get(key string) ([]byte, bool) { return c.lru.Get(key) }

// Put stores val under key, evicting cold entries to stay within the
// byte budget. A value larger than a shard's share of the budget is not
// admitted.
func (c *Cache) Put(key string, val []byte) { c.lru.Put(key, val) }

// CacheStats is a point-in-time summary of the cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64 // current payload bytes (gauge)
	Entries   int64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	st := c.lru.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Bytes: st.Cost, Entries: st.Entries}
}
