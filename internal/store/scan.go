package store

import (
	"time"

	"spotlight/internal/market"
)

// MarketView is one market's shard as a scope scan hands it to its
// visitor: read-locked for the duration of the visit, so every fold the
// visitor asks for sees the same records and pays no further lock or
// lookup. The folds are the shard-level ones behind the per-market reads
// (CrossingStatsFor, OutageOverlap, PriceStatsIn); a visitor calls only
// the ones its ranking needs. A view is invalid once the visit returns.
type MarketView struct{ sh *shard }

// Market returns the viewed market.
func (v MarketView) Market() market.SpotID { return v.sh.id() }

// Window is a closed query window [from, to] converted to stamps once, so
// a scan hands every market's folds the same value instead of converting
// the window per fold per market.
type Window struct{ from, to int64 }

// WindowOf returns the window [from, to].
func WindowOf(from, to time.Time) Window { return Window{stamp(from), stamp(to)} }

// CrossingStats is CrossingStatsFor on the viewed market.
func (v MarketView) CrossingStats(w Window) CrossingStats {
	return v.sh.crossingStatsLocked(w.from, w.to)
}

// OutageOverlap is Store.OutageOverlap on the viewed market.
func (v MarketView) OutageOverlap(kind ProbeKind, w Window) time.Duration {
	return v.sh.outageOverlapLocked(kind, w.from, w.to)
}

// PriceStats is PriceStatsIn on the viewed market.
func (v MarketView) PriceStats(w Window) PriceWindowStats {
	return v.sh.priceStatsLocked(w.from, w.to)
}

// PriceFloor returns a lower bound on every non-NaN price PriceStats would
// fold over w, read from the sealed chunks' summaries and the raw tail
// without decoding a chunk: what a ranking asks before paying for the
// fold. false when there is no bound (a NaN summary or tail price).
func (v MarketView) PriceFloor(w Window) (float64, bool) {
	ps := v.sh.prices.series()
	return ps.floor(w.from, w.to)
}

// RevocationStats returns how many revocation watches landed inside w and
// the sum of their held times — what a ranking needs of RevocationsFor,
// without materializing the records.
func (v MarketView) RevocationStats(w Window) (watches int, held time.Duration) {
	return v.sh.revocationStatsLocked(w.from, w.to)
}

// OutagesOpened counts the detected outages, of either kind, that opened
// inside w.
func (v MarketView) OutagesOpened(w Window) (n int) {
	if v.sh.outages == nil {
		return 0
	}
	v.sh.outagesIn(w.from, w.to, func(_ int, start, end int64) {
		if end == noOutage && w.from <= start && start <= w.to {
			n++
		}
	})
	return n
}

// ScanScope visits every market with at least one record in the
// (region, product) scope exactly once, either dimension empty for "all",
// resolving the scope through the rollup entries' member lists: a scoped
// ranking touches only its own shards, each under one read lock. Visit
// order is adoption order, not market order — rank with a total order.
// A market adopted while the scan runs may or may not be visited. visit
// runs under the shard's read lock: it must not block or append.
func (s *Store) ScanScope(region market.Region, product market.Product, visit func(MarketView)) {
	if region != "" {
		if r := s.rollupLookup(rollupScope{region: region, product: product}); r != nil {
			r.scan(visit)
		}
		return
	}
	// Every region's entry of the product — the region-level entries when
	// the product is open too — partitions the scope.
	for _, r := range s.sortedRollups() {
		if r.scope.product == product {
			r.scan(visit)
		}
	}
}

// View runs visit on id's shard under its read lock, as ScanScope would,
// and reports whether id has one: one lookup and one lock, so every fold
// visit asks for reads the same records. visit must not block or append.
func (s *Store) View(id market.SpotID, visit func(MarketView)) bool {
	sh := s.lookup(id)
	if sh == nil {
		return false
	}
	sh.view(visit)
	return true
}

func (r *rollup) scan(visit func(MarketView)) {
	r.mu.Lock()
	members := r.members
	r.mu.Unlock()
	for _, sh := range members {
		sh.view(visit)
	}
}

// view runs visit under the shard's read lock, released even if it panics.
func (sh *shard) view(visit func(MarketView)) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	visit(MarketView{sh})
}
