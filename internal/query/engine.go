// Package query implements SpotLight's query interface (Chapter 3:
// "SpotLight exports a query interface that enables applications or users
// to query information about the availability characteristics of
// different server types and contracts"). The Engine answers queries from
// the store; the HTTP layer in this package exposes them to applications
// like SpotCheck and SpotOn for programmatic, automated server selection.
package query

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"spotlight/internal/advisor"
	"spotlight/internal/market"
	"spotlight/internal/stats"
	"spotlight/internal/store"
)

// ErrBadWindow is returned when a query window is empty or inverted.
var ErrBadWindow = errors.New("query: to must be after from")

// Engine answers availability queries from a SpotLight store. The
// cacheable queries — the rankings (TopStableMarkets, TopVolatileMarkets),
// Summary, per-market unavailability, and windowed price summaries — are
// memoized in a generation-keyed response cache: a result is reused until
// some shard in the query's scope sees an append. Scope generations come
// from the store's rollup hierarchy (GenerationOfScope), so a cache probe
// is O(1) instead of a walk over every shard, and Summary itself reads the
// O(regions) region rollups rather than folding per-market state.
// Cached results are shared between callers — treat the returned slices as
// read-only.
type Engine struct {
	db    *store.Store
	cat   *market.Catalog
	cache *resultCache
	adv   *advisor.Advisor
}

// NewEngine builds a query engine over db and the catalog, with response
// caching enabled.
func NewEngine(db *store.Store, cat *market.Catalog) *Engine {
	return &Engine{db: db, cat: cat, cache: newResultCache(0), adv: advisor.New(db, cat)}
}

// Advisor returns the engine's decision layer, the one /v2/advise ranks
// with, so its metrics can read the generation-keyed memo's counters.
func (e *Engine) Advisor() *advisor.Advisor { return e.adv }

// SetCaching enables or disables the response cache (it is on by
// default). Disabling exists for benchmarks that measure the raw query
// path and for callers that mutate returned slices.
func (e *Engine) SetCaching(on bool) {
	if on {
		if e.cache == nil {
			e.cache = newResultCache(0)
		}
		return
	}
	e.cache = nil
}

// CacheStats returns the response cache's hit/miss counters (zeros when
// caching is disabled).
func (e *Engine) CacheStats() (hits, misses uint64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// unavailability computes the fraction of [from, to] covered by detected
// outages of the given contract kind. The window arithmetic runs inside
// the market's shard (store.OutageOverlap): no interval list is copied.
// This is the uncached path.
func (e *Engine) unavailability(m market.SpotID, kind store.ProbeKind, from, to time.Time) (float64, error) {
	if !to.After(from) {
		return 0, ErrBadWindow
	}
	total := e.db.OutageOverlap(m, kind, from, to)
	return float64(total) / float64(to.Sub(from)), nil
}

// cachedUnavailability memoizes one market's unavailability per (market,
// kind, window) keyed by the market's own shard generation — appends to
// any other market leave the entry valid.
func (e *Engine) cachedUnavailability(m market.SpotID, kind store.ProbeKind, from, to time.Time) (float64, error) {
	if e.cache == nil {
		return e.unavailability(m, kind, from, to)
	}
	gen := e.db.Generation(m)
	key := fmt.Sprintf("unav|%s|%d|%d|%d", m, kind, from.UnixNano(), to.UnixNano())
	return memoize(e.cache, key, gen, func() (float64, error) {
		return e.unavailability(m, kind, from, to)
	})
}

// ODUnavailability returns the fraction of the window during which the
// market's on-demand tier was detected unavailable. Results are cached per
// (market, window) until the market's shard sees an append.
func (e *Engine) ODUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.cachedUnavailability(m, store.ProbeOnDemand, from, to)
}

// SpotUnavailability returns the fraction of the window during which the
// market's spot tier was detected capacity-not-available. Cached like
// ODUnavailability.
func (e *Engine) SpotUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.cachedUnavailability(m, store.ProbeSpot, from, to)
}

// StableMarket is one row of a stability ranking.
type StableMarket struct {
	Market market.SpotID `json:"market"`
	// Crossings is how many times the spot price crossed the on-demand
	// price in the window — each crossing revokes a spot instance bid at
	// the on-demand price.
	Crossings int `json:"crossings"`
	// MTTR is the estimated mean time to revocation for a bid equal to
	// the on-demand price: window / (crossings + 1). This is the metric
	// behind the paper's example query ("top ten server types with the
	// longest mean-time-to-revocation for a bid price equal to the
	// corresponding on-demand price").
	MTTR time.Duration `json:"mttrNanos"`
	// ODUnavailability is the market's detected on-demand outage
	// fraction over the window.
	ODUnavailability float64 `json:"odUnavailability"`
}

// TopStableMarkets ranks the spot markets of a region (all regions when
// empty) by fewest on-demand-price crossings and returns the n most
// stable. Product filters to one platform when non-empty. Results are
// cached per (filter, n, window) until an append lands in a matching
// shard; the returned slice is shared — do not modify it.
func (e *Engine) TopStableMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]StableMarket, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
	if e.cache == nil {
		return e.computeStableMarkets(region, product, n, from, to)
	}
	// The generation is the scope's rollup counter — an O(1) load, not a
	// shard walk; memoize owns the generation-first ordering.
	gen := e.db.GenerationOfScope(region, product)
	key := fmt.Sprintf("stable|%s|%s|%d|%d|%d", region, product, n, from.UnixNano(), to.UnixNano())
	return memoize(e.cache, key, gen, func() ([]StableMarket, error) {
		return e.computeStableMarkets(region, product, n, from, to)
	})
}

// computeStableMarkets is the uncached stability ranking: one scan of the
// scope's catalog markets into a top-n selection.
func (e *Engine) computeStableMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]StableMarket, error) {
	if product != "" && !slices.Contains(market.Products, product) {
		return nil, nil // no catalog market sells it
	}
	window := to.Sub(from)
	top := stats.NewTopN(n, func(a, b *StableMarket) bool {
		if a.Crossings != b.Crossings {
			return a.Crossings < b.Crossings
		}
		if a.ODUnavailability != b.ODUnavailability {
			return a.ODUnavailability < b.ODUnavailability
		}
		return a.Market.Compare(b.Market) < 0
	})
	e.scanCatalog(region, product, "", from, to, func(id market.SpotID, crossings int, odUnav float64) {
		top.Push(StableMarket{
			Market:           id,
			Crossings:        crossings,
			MTTR:             window / time.Duration(crossings+1),
			ODUnavailability: odUnav,
		})
	})
	return top.Sorted(), nil
}

// scanCatalog hands row every catalog market of region (all regions when
// empty) and product (all platforms when empty), except those of family
// skip, exactly once, with its on-demand-price crossings and on-demand
// outage fraction over [from, to]. Markets with a shard come from one scan
// of the store's scope index; a catalog market the store has never seen
// still gets its row (no crossings, no outage), and a stored market
// outside the catalog gets none.
func (e *Engine) scanCatalog(region market.Region, product market.Product, skip market.Family, from, to time.Time, row func(id market.SpotID, crossings int, odUnav float64)) {
	zones, types, products := e.cat.Zones(), e.cat.Types(), market.Products
	if region != "" {
		zones = e.cat.ZonesIn(region)
	}
	if product != "" {
		products = []market.Product{product}
	}
	if len(zones) == 0 {
		return
	}
	firstZone, _ := e.cat.ZoneIndex(zones[0])
	// seen marks the scope's catalog markets that have a shard, indexed in
	// the order the loop below enumerates them.
	seen := make([]uint64, (len(zones)*len(types)*len(products)+63)/64)
	window := float64(to.Sub(from))
	e.db.ScanScope(region, product, func(v store.MarketView) {
		id := v.Market()
		zi, okZone := e.cat.ZoneIndex(id.Zone)
		ti, okType := e.cat.TypeIndex(id.Type)
		pi := slices.Index(products, id.Product)
		if !okZone || !okType || pi < 0 {
			return
		}
		i := ((zi-firstZone)*len(types)+ti)*len(products) + pi
		seen[i/64] |= 1 << (i % 64)
		if id.Type.Family() == skip {
			return
		}
		odUnav := float64(v.OutageOverlap(store.ProbeOnDemand, from, to)) / window
		row(id, v.CrossingStats(from, to).Crossings, odUnav)
	})
	i := 0
	for _, z := range zones {
		for _, t := range types {
			for _, p := range products {
				if seen[i/64]&(1<<(i%64)) == 0 && t.Family() != skip {
					row(market.SpotID{Zone: z, Type: t, Product: p}, 0, 0)
				}
				i++
			}
		}
	}
}

// Fallback is one recommended fail-over market.
type Fallback struct {
	Market market.SpotID `json:"market"`
	// ODUnavailability is the candidate's detected on-demand outage
	// fraction (lower is better: this is the pool an application fails
	// over to when its spot server is revoked).
	ODUnavailability float64 `json:"odUnavailability"`
	// Crossings counts the candidate's own spot spikes in the window.
	Crossings int `json:"crossings"`
}

// RecommendFallback returns up to n markets from *different families* in
// the same region whose on-demand tier was most available during the
// window — the uncorrelated fail-over targets that restore SpotCheck and
// SpotOn to near-100% availability (Chapter 6).
func (e *Engine) RecommendFallback(m market.SpotID, n int, from, to time.Time) ([]Fallback, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
	// The uncorrelated candidates (market.Catalog.UncorrelatedCandidates)
	// are m's region and platform minus m's family; an unknown region has
	// none (an empty one must not read as "all regions").
	if !e.cat.HasRegion(m.Region()) {
		return nil, nil
	}
	top := stats.NewTopN(n, func(a, b *Fallback) bool {
		if a.ODUnavailability != b.ODUnavailability {
			return a.ODUnavailability < b.ODUnavailability
		}
		if a.Crossings != b.Crossings {
			return a.Crossings < b.Crossings
		}
		return a.Market.Compare(b.Market) < 0
	})
	e.scanCatalog(m.Region(), m.Product, m.Type.Family(), from, to, func(id market.SpotID, crossings int, odUnav float64) {
		top.Push(Fallback{Market: id, ODUnavailability: odUnav, Crossings: crossings})
	})
	return top.Sorted(), nil
}

// RegionSummary aggregates detected availability per region.
type RegionSummary struct {
	Region            market.Region `json:"region"`
	ODOutages         int           `json:"odOutages"`
	SpotOutages       int           `json:"spotOutages"`
	MeanODOutage      time.Duration `json:"meanODOutageNanos"`
	RejectedODProbes  int           `json:"rejectedODProbes"`
	TotalODProbes     int           `json:"totalODProbes"`
	RejectedSpotPcnt  float64       `json:"rejectedSpotPcnt"`
	TotalSpotProbes   int           `json:"totalSpotProbes"`
	SpikesAboveOD     int           `json:"spikesAboveOD"`
	ObservedSpikesAll int           `json:"observedSpikesAll"`
}

// Summary aggregates the store per region at instant now (used to close
// ongoing outages). It reads the store's region-level rollups — O(regions)
// entries maintained incrementally on the append path, so no market shard
// is walked at all — and memoizes the result per (now, global generation):
// repeated summary queries between appends (and between ticks of the
// service clock) are a cache hit. The returned slice is shared — do not
// modify it.
func (e *Engine) Summary(now time.Time) []RegionSummary {
	// The summary depends on now (open outages are measured to it), so it
	// is keyed by its instant. Under an advancing clock each tick leaves one
	// dead entry behind; the map's wholesale reset bounds them.
	gen := e.db.GlobalGeneration()
	rows, _ := memoize(e.cache, "summary|"+strconv.FormatInt(now.UnixNano(), 10), gen, func() (out []RegionSummary, _ error) {
		for _, agg := range e.db.RegionAggregates(now) {
			if agg.TotalProbes == 0 && agg.Spikes == 0 {
				continue // regions with only price/bid-spread/revocation history
			}
			s := RegionSummary{
				Region:            agg.Region,
				ODOutages:         agg.ODOutages,
				SpotOutages:       agg.SpotOutages,
				RejectedODProbes:  agg.ODRejected,
				TotalODProbes:     agg.ODProbes,
				TotalSpotProbes:   agg.SpotProbes,
				SpikesAboveOD:     agg.SpikesAboveOD,
				ObservedSpikesAll: agg.Spikes,
			}
			if agg.ODOutages > 0 {
				s.MeanODOutage = agg.ODOutageDur / time.Duration(agg.ODOutages)
			}
			if agg.SpotProbes > 0 {
				s.RejectedSpotPcnt = float64(agg.SpotRejected) / float64(agg.SpotProbes)
			}
			out = append(out, s)
		}
		return out, nil
	})
	return rows
}

// MarketInfo is one row of the market-discovery listing.
type MarketInfo struct {
	Market        market.SpotID `json:"market"`
	OnDemandPrice float64       `json:"onDemandPrice"`
	Family        string        `json:"family"`
	Units         int           `json:"units"`
}

// Markets lists the catalog's spot markets, optionally filtered by region
// and product — the discovery call an application makes before asking
// availability questions.
func (e *Engine) Markets(region market.Region, product market.Product) ([]MarketInfo, error) {
	var out []MarketInfo
	for _, id := range e.cat.SpotMarkets() {
		if region != "" && id.Region() != region {
			continue
		}
		if product != "" && id.Product != product {
			continue
		}
		od, err := e.cat.SpotODPrice(id)
		if err != nil {
			return nil, err
		}
		units, err := e.cat.Units(id.Type)
		if err != nil {
			return nil, err
		}
		out = append(out, MarketInfo{
			Market:        id,
			OnDemandPrice: od,
			Family:        string(id.Type.Family()),
			Units:         units,
		})
	}
	return out, nil
}

// Prices returns the recorded price points of a market within the window,
// sliced out of the market's shard by binary search.
func (e *Engine) Prices(m market.SpotID, from, to time.Time) ([]store.PricePoint, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	return e.db.PricesIn(m, from, to), nil
}
