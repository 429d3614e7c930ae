package query

import "sync"

// resultCache memoizes query results keyed by the query's parameters plus
// the store generation of the shards the query reads (its scope). A hit
// requires the stored generation to equal the scope's current generation,
// so the cache never needs explicit eviction on write: an append inside
// the scope bumps exactly that scope's generation and the stale entry
// simply stops matching, while appends to unrelated shards leave the
// entry valid — per-shard invalidation for free.
//
// Values are stored and returned by reference; callers must treat cached
// results as immutable.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	max     int

	hits, misses uint64
}

type cacheEntry struct {
	gen uint64
	val any
}

// defaultCacheSize bounds the entry map. Distinct (query, window) pairs on
// a serving engine are few — applications poll the same dashboards —
// so the bound exists only to survive adversarial key churn.
const defaultCacheSize = 1024

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = defaultCacheSize
	}
	return &resultCache{entries: make(map[string]cacheEntry), max: max}
}

// get returns the cached value for key if it was stored at generation gen.
func (c *resultCache) get(key string, gen uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.gen != gen {
		c.misses++
		return nil, false
	}
	c.hits++
	return e.val, true
}

// put stores val for key at generation gen. When the map is full it is
// reset wholesale: entries re-fill on demand and the reset path is cheaper
// and simpler than tracking recency for a cache this small.
func (c *resultCache) put(key string, gen uint64, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.max {
		c.entries = make(map[string]cacheEntry)
	}
	c.entries[key] = cacheEntry{gen: gen, val: val}
}

// memoize serves key from the cache when it is valid at gen, and
// otherwise computes, stores, and returns the value. It owns the one
// ordering rule every cached query must respect: the caller reads the
// scope generation *before* calling (gen is a parameter), compute runs
// after, so an append racing the computation leaves the entry keyed at
// the older generation and the next lookup recomputes instead of serving
// stale data. A nil cache just computes.
func memoize[T any](c *resultCache, key string, gen uint64, compute func() (T, error)) (T, error) {
	if c == nil {
		return compute()
	}
	if v, ok := c.get(key, gen); ok {
		return v.(T), nil
	}
	val, err := compute()
	if err != nil {
		var zero T
		return zero, err
	}
	c.put(key, gen, val)
	return val, nil
}

// stats returns the hit/miss counters (test and benchmark visibility).
func (c *resultCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
