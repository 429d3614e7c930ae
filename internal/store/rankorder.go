package store

import (
	"slices"
	"sync"

	"spotlight/internal/market"
)

// AllTime is the window of every stamp a store can hold: a fold over it
// bounds the same fold over any window.
var AllTime = Window{minStamp, maxStamp}

// RankOrder keeps each (region, product) scope's stored markets sorted by
// a ranking's best case over all time, ties in market-ID order: the sorted
// access of a threshold walk (Fagin et al., PODS 2001). A ranking whose
// every window row ranks no better than its market's all-time best case,
// and whose selection orders equal best cases by market ID, walks a scope
// in this order and stops at the first market its selection refuses: every
// later market's best case ranks no better, so the selection would refuse
// it too.
//
// It is an index of stored data, not of requests: a scope's order is built
// by one scope scan on the first walk after the scope's generation moved,
// so the append path pays nothing, and only a scope that holds records
// keeps one. Safe for concurrent use.
type RankOrder[K any] struct {
	db  *Store
	key func(MarketView) (K, bool)
	cmp func(a, b K) int

	mu     sync.Mutex
	scopes map[rollupScope]rankedScope[K]
}

// rankedScope is one scope's order as built at generation gen.
type rankedScope[K any] struct {
	gen  uint64
	list []ranked[K]
}

// ranked holds its market's shard: an adopted shard is never replaced, so
// a walk views it without the store lock.
type ranked[K any] struct {
	id  market.SpotID
	sh  *shard
	key K
}

// NewRankOrder returns an order over db by key, read from each market's
// view over AllTime (false leaves the market out: no window of it can
// rank), best first under cmp.
func NewRankOrder[K any](db *Store, key func(MarketView) (K, bool), cmp func(a, b K) int) *RankOrder[K] {
	return &RankOrder[K]{db: db, key: key, cmp: cmp, scopes: make(map[rollupScope]rankedScope[K])}
}

// Walk asks admits about the scope's markets in order, each with its key,
// and runs visit on each admitted one with the same ID and key under its
// view, as ScanScope would, until admits refuses one. Either dimension may
// be empty for "all"; a scope with no records walks nothing. It returns how
// many markets it viewed. visit must not block or append.
func (o *RankOrder[K]) Walk(region market.Region, product market.Product, admits func(id market.SpotID, key K) bool, visit func(id market.SpotID, key K, v MarketView)) (viewed int) {
	for _, e := range o.list(region, product) {
		if !admits(e.id, e.key) {
			break
		}
		e.sh.view(func(v MarketView) { visit(e.id, e.key, v) })
		viewed++
	}
	return viewed
}

// list returns the scope's order, rebuilt when the scope's generation has
// moved since it was built. The generation is read before the scan, so an
// append racing the scan leaves a generation the next walk rebuilds at.
func (o *RankOrder[K]) list(region market.Region, product market.Product) []ranked[K] {
	gen := o.db.GenerationOfScope(region, product)
	if gen == 0 {
		return nil // no records: an unknown region or product among them
	}
	sc := rollupScope{region: region, product: product}
	o.mu.Lock()
	cur, ok := o.scopes[sc]
	o.mu.Unlock()
	if ok && cur.gen == gen {
		return cur.list
	}
	var list []ranked[K]
	o.db.ScanScope(region, product, func(v MarketView) {
		if k, ok := o.key(v); ok {
			list = append(list, ranked[K]{id: v.Market(), sh: v.sh, key: k})
		}
	})
	slices.SortFunc(list, func(a, b ranked[K]) int {
		if c := o.cmp(a.key, b.key); c != 0 {
			return c
		}
		return a.id.Compare(b.id)
	})
	o.mu.Lock()
	if cur, ok := o.scopes[sc]; !ok || cur.gen < gen {
		o.scopes[sc] = rankedScope[K]{gen: gen, list: list}
	}
	o.mu.Unlock()
	return list
}
