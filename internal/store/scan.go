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

// CrossingStats is CrossingStatsFor on the viewed market.
func (v MarketView) CrossingStats(from, to time.Time) CrossingStats {
	return v.sh.crossingStatsLocked(stamp(from), stamp(to))
}

// OutageOverlap is Store.OutageOverlap on the viewed market.
func (v MarketView) OutageOverlap(kind ProbeKind, from, to time.Time) time.Duration {
	return v.sh.outageOverlapLocked(kind, stamp(from), stamp(to))
}

// PriceStats is PriceStatsIn on the viewed market.
func (v MarketView) PriceStats(from, to time.Time) PriceWindowStats {
	return v.sh.priceStatsLocked(stamp(from), stamp(to))
}

// PriceFloor returns a lower bound on every non-NaN price PriceStats would
// fold over [from, to], read from the sealed chunks' summaries and the raw
// tail without decoding a chunk: what a ranking asks before paying for the
// fold. false when there is no bound (a NaN summary or tail price).
func (v MarketView) PriceFloor(from, to time.Time) (float64, bool) {
	ps := v.sh.prices.series()
	return ps.floor(stamp(from), stamp(to))
}

// RevocationStats returns how many revocation watches landed inside
// [from, to] and the sum of their held times — what a ranking needs of
// RevocationsFor, without materializing the records.
func (v MarketView) RevocationStats(from, to time.Time) (watches int, held time.Duration) {
	return v.sh.revocationStatsLocked(stamp(from), stamp(to))
}

// OutagesOpened counts the detected outages, of either kind, that opened
// inside [from, to].
func (v MarketView) OutagesOpened(from, to time.Time) (n int) {
	if v.sh.outages == nil {
		return 0
	}
	f, t := stamp(from), stamp(to)
	v.sh.outagesIn(f, t, func(_ int, start, end int64) {
		if end == noOutage && f <= start && start <= t {
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
