package query

import (
	"sync"
	"sync/atomic"
)

// bodyTable holds rendered answers: the ETag and encoded JSON body of a
// 200, keyed by the route it was served on plus the exact bytes the ETag
// hashes (appendKey). Those bytes carry every spec's parameters and the
// generation of the scope its answer reads, so the table never needs
// explicit eviction on write: an append inside a scope bumps that scope's
// generation, the next request builds a different key and misses, while
// appends to unrelated shards leave the key — and the entry — valid.
//
// The ordering rule every entry respects: the key (and so each scope
// generation) is read before the answer is computed, so an append racing
// the computation leaves the entry under the older generation, which no
// later request builds again.
type bodyTable struct {
	mu      sync.Mutex
	entries map[string]rendered
	size    int // bytes held by entries' keys and bodies

	hits, misses atomic.Uint64
}

// rendered is one stored answer. For the envelopes that echo the clock
// (/v2/query, /v2/advise) body starts after `{"now":<now>,`: the tag
// leaves the clock out, so the entry serves every tick it stays valid.
type rendered struct {
	etag string
	body []byte
}

// The table's bounds. Distinct (query, window) pairs on a serving node are
// few — applications poll the same dashboards — so the bounds exist only
// to survive adversarial key churn. Reaching either resets the table
// wholesale: entries refill on demand, and the reset is cheaper and
// simpler than tracking recency for a table this small.
const (
	maxCacheEntries = 1024
	maxCacheBytes   = 64 << 20
)

// get returns the answer stored under key. It counts nothing: a 304
// answers from the tag alone, so only the caller knows whether a body is
// served. A nil table (caching off) holds nothing.
func (t *bodyTable) get(key []byte) (rendered, bool) {
	if t == nil {
		return rendered{}, false
	}
	t.mu.Lock()
	r, ok := t.entries[string(key)]
	t.mu.Unlock()
	return r, ok
}

// put stores r under key, unless r alone outgrows the byte bound.
func (t *bodyTable) put(key []byte, r rendered) {
	n := len(key) + len(r.etag) + cap(r.body)
	if t == nil || n > maxCacheBytes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[string(key)]; ok {
		return // a concurrent miss stored this key first
	}
	if t.entries == nil || len(t.entries) >= maxCacheEntries || t.size+n > maxCacheBytes {
		t.entries, t.size = make(map[string]rendered), 0
	}
	t.entries[string(key)] = r
	t.size += n
}
