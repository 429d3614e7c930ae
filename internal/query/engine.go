// Package query implements SpotLight's query interface (Chapter 3:
// "SpotLight exports a query interface that enables applications or users
// to query information about the availability characteristics of
// different server types and contracts"). The Engine answers queries from
// the store; the HTTP layer in this package exposes them to applications
// like SpotCheck and SpotOn for programmatic, automated server selection.
package query

import (
	"errors"
	"slices"
	"time"

	"spotlight/internal/advisor"
	"spotlight/internal/market"
	"spotlight/internal/stats"
	"spotlight/internal/store"
)

// ErrBadWindow is returned when a query window is empty or inverted.
var ErrBadWindow = errors.New("query: to must be after from")

// Engine answers availability queries from a SpotLight store. Its methods
// always compute: Summary reads the O(regions) region rollups rather than
// folding per-market state, and the rankings read their scope at most
// once. What the engine keeps for the HTTP layer is the table of rendered
// answers (bodyTable): a served body is reused until some shard in the
// query's scope sees an append.
type Engine struct {
	db    *store.Store
	cat   *market.Catalog
	cache *bodyTable
	adv   *advisor.Advisor
}

// NewEngine builds a query engine over db and the catalog, with the table
// of rendered answers enabled.
func NewEngine(db *store.Store, cat *market.Catalog) *Engine {
	return &Engine{db: db, cat: cat, cache: &bodyTable{}, adv: advisor.New(db, cat)}
}

// Advisor returns the engine's decision layer, the one /v2/advise ranks
// with, so its metrics can read the advisor's ranking and fold counters.
func (e *Engine) Advisor() *advisor.Advisor { return e.adv }

// SetCaching enables or disables the table of rendered answers the HTTP
// layer serves repeated queries from (it is on by default). Disabling
// exists for oracles and benchmarks that measure the raw query path.
func (e *Engine) SetCaching(on bool) {
	if on {
		if e.cache == nil {
			e.cache = &bodyTable{}
		}
		return
	}
	e.cache = nil
}

// CacheStats returns the table's counters: bodies served from it, and
// requests whose queries ran because it held none (zeros when caching is
// disabled). A 304 counts in neither.
func (e *Engine) CacheStats() (hits, misses uint64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.hits.Load(), e.cache.misses.Load()
}

// unavailability computes the fraction of [from, to] covered by detected
// outages of the given contract kind. The window arithmetic runs inside
// the market's shard (store.OutageOverlap): no interval list is copied.
func (e *Engine) unavailability(m market.SpotID, kind store.ProbeKind, from, to time.Time) (float64, error) {
	if !to.After(from) {
		return 0, ErrBadWindow
	}
	total := e.db.OutageOverlap(m, kind, from, to)
	return float64(total) / float64(to.Sub(from)), nil
}

// ODUnavailability returns the fraction of the window during which the
// market's on-demand tier was detected unavailable.
func (e *Engine) ODUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.unavailability(m, store.ProbeOnDemand, from, to)
}

// SpotUnavailability returns the fraction of the window during which the
// market's spot tier was detected capacity-not-available.
func (e *Engine) SpotUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.unavailability(m, store.ProbeSpot, from, to)
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
// stable: one walk of the scope's catalog markets into a top-n selection.
// Product filters to one platform when non-empty.
func (e *Engine) TopStableMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]StableMarket, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
	if product != "" && !slices.Contains(market.Products, product) {
		return nil, nil // no catalog market sells it
	}
	window := to.Sub(from)
	top := stats.NewTopN(n, stableBefore)
	admits := func(id market.SpotID) bool { return top.Admits(StableMarket{Market: id}) }
	e.walk(region, product, "", from, to, admits, func(id market.SpotID, crossings int, odUnav float64) {
		top.Push(StableMarket{
			Market:           id,
			Crossings:        crossings,
			MTTR:             window / time.Duration(crossings+1),
			ODUnavailability: odUnav,
		})
	})
	return top.Sorted(), nil
}

// stableBefore is the stability order: fewest crossings, then least
// on-demand unavailability, then market ID.
func stableBefore(a, b *StableMarket) bool {
	if a.Crossings != b.Crossings {
		return a.Crossings < b.Crossings
	}
	if a.ODUnavailability != b.ODUnavailability {
		return a.ODUnavailability < b.ODUnavailability
	}
	return a.Market.Compare(b.Market) < 0
}

// walk hands row the catalog markets of region (all regions when empty)
// and product (all platforms when empty), except those of family skip, in
// SpotID.Compare order, each with its on-demand-price crossings and
// on-demand outage fraction over [from, to], both folded under one store
// view; a market the store has never seen gets no crossings and no outage,
// and a stored market outside the catalog gets no row. Before each market
// admits is asked whether its best case, no crossings and no outage, could
// still make the ranking. Both rankings order equal best cases by market ID
// alone, so the first refusal refuses every later market too and ends the
// walk: its cost follows n, not the scope.
func (e *Engine) walk(region market.Region, product market.Product, skip market.Family, from, to time.Time, admits func(market.SpotID) bool, row func(id market.SpotID, crossings int, odUnav float64)) {
	window, w := float64(to.Sub(from)), store.WindowOf(from, to)
	var crossings int
	var odUnav float64
	fold := func(v store.MarketView) {
		crossings = v.CrossingStats(w).Crossings
		odUnav = float64(v.OutageOverlap(store.ProbeOnDemand, w)) / window
	}
	ids := e.cat.SpotMarkets()
	for _, p := range e.cat.SpotOrder(region) {
		id := ids[p]
		if product != "" {
			// With the product fixed, Compare orders markets by zone and type
			// alone: the first product's position stands for the zone and
			// type, whatever product the ranking asks about.
			if int(p)%len(market.Products) != 0 {
				continue
			}
			id.Product = product
		}
		if skip != "" && id.Type.Family() == skip {
			continue
		}
		if !admits(id) {
			return
		}
		if !e.db.View(id, fold) {
			crossings, odUnav = 0, 0 // never seen: no crossings, no outage
		}
		row(id, crossings, odUnav)
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
	admits := func(id market.SpotID) bool { return top.Admits(Fallback{Market: id}) }
	e.walk(m.Region(), m.Product, m.Type.Family(), from, to, admits, func(id market.SpotID, crossings int, odUnav float64) {
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
// is walked at all.
func (e *Engine) Summary(now time.Time) (out []RegionSummary) {
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
	return out
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
