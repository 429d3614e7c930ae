package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// The rollup layer is the store's second index level: above the per-market
// shards sit incrementally-maintained aggregates per (region, product) and
// per region, updated in the same lock round as every shard append. Scope
// queries that only need totals — Engine.Summary, the response cache's
// scope-generation probes, fleet dashboards — read O(regions) rollup
// entries instead of walking and merging every market shard.
//
// Each rollup carries two things:
//
//   - an append-generation counter (atomic, lock-free to read): the number
//     of records of any kind ever appended inside the scope. It equals the
//     sum of the scope's shard generations by construction, so it is the
//     same per-shard invalidation signal Store.ScopeGeneration computes by
//     walking shards — at O(1) instead of O(markets);
//   - the additive aggregates of the scope's shards (probe/rejection
//     counters by kind, outage counts and durations, spike and crossing
//     stats, price count/sum/min/max), folded in as rollupDeltas by the
//     shard append paths.
//
// Open outages are the one non-trivially-additive piece: their duration
// depends on the instant the query asks about. openOutageSum keeps the
// count of open intervals and the exact sum of their start times (split
// into seconds and nanoseconds so the sum cannot overflow), from which
// "total open duration measured to now" is one subtraction.

// rollupScope identifies one rollup entry: a region, optionally narrowed
// to one product platform. The region-level entry uses the empty product.
type rollupScope struct {
	region  market.Region
	product market.Product
}

// rollup is one scope's incrementally-maintained aggregate.
type rollup struct {
	scope rollupScope

	// gen counts every record ever appended to the scope's shards. Atomic
	// so cache-validity probes never take a lock.
	gen atomic.Uint64

	mu  sync.Mutex
	agg rollupAgg
	// members is the scope index: the scope's shards in adoption order,
	// append-only, so a header copied under mu stays valid after unlock.
	members []*shard
}

// rollupKindAgg aggregates one contract kind across a scope's shards.
type rollupKindAgg struct {
	probes   int
	rejected int
	// outages counts every derived outage interval, open ones included.
	outages int
	// closedOutageDur sums End-Start over closed outages.
	closedOutageDur time.Duration
	// open tracks the scope's ongoing outages.
	open openOutageSum
}

// outageDur returns the scope's total detected outage time measured to
// now, ongoing outages included.
func (a *rollupKindAgg) outageDur(now time.Time) time.Duration {
	return a.closedOutageDur + a.open.durTo(now)
}

// rollupAgg is the additive aggregate state of one rollup.
type rollupAgg struct {
	// markets counts the scope's shards (every shard holds at least one
	// record: shards are created on first append).
	markets int

	byKind     [probeKinds]rollupKindAgg
	probeCount int // all kinds, unknown included
	probeCost  float64

	spikes        int
	spikesAboveOD int
	// maxCrossRatio is the largest on-demand crossing ratio ever observed
	// in the scope (all-time; window-scoped crossing queries stay on the
	// shard indexes).
	maxCrossRatio float64

	priceCount         int
	priceSum           float64
	priceMin, priceMax float64
}

// openOutageSum tracks a set of ongoing outages as a count plus the exact
// sum of their start instants. Summing raw UnixNano values would overflow
// int64 after a handful of entries, so seconds and in-second nanoseconds
// accumulate separately; both stay far below overflow for any realistic
// number of markets.
type openOutageSum struct {
	count int64
	sec   int64 // sum of Unix() over open starts
	nsec  int64 // sum of Nanosecond() over open starts
}

// add registers an outage opening at start; negative dir (-1) removes it
// again when the outage closes.
func (o *openOutageSum) add(start time.Time, dir int64) {
	o.count += dir
	o.sec += dir * start.Unix()
	o.nsec += dir * int64(start.Nanosecond())
}

// durTo returns the exact total of now.Sub(start) over the open set:
// count*now − Σstart, computed in the split representation.
func (o openOutageSum) durTo(now time.Time) time.Duration {
	if o.count == 0 {
		return 0
	}
	sec := o.count*now.Unix() - o.sec
	nsec := o.count*int64(now.Nanosecond()) - o.nsec
	return time.Duration(sec)*time.Second + time.Duration(nsec)
}

// rollupKindDelta is the per-kind part of one append batch's effect on a
// rollup. Every field is additive, so a delta can fold any number of
// records and still apply with one lock acquisition.
type rollupKindDelta struct {
	probes          int
	rejected        int
	outages         int
	closedOutageDur time.Duration
	// openCount/openSec/openNsec mirror openOutageSum: +start when an
	// outage opens, −start when it closes.
	openCount int64
	openSec   int64
	openNsec  int64
}

// rollupDelta accumulates the rollup-visible effect of one append (or one
// batched append) so the shard pays one rollup lock round per level per
// batch, not per record.
type rollupDelta struct {
	records uint64 // generation bumps

	byKind     [probeKinds]rollupKindDelta
	probeCount int
	probeCost  float64

	spikes        int
	spikesAboveOD int
	maxCrossRatio float64

	priceCount         int
	priceSum           float64
	priceMin, priceMax float64 // meaningful when priceCount > 0

	// emit arms change-feed event construction for the round (set by
	// shard.armEvents when the feed has subscribers); events accumulates
	// the round's typed events, published once after the shard lock is
	// released (shard.publish).
	emit   bool
	events []Event
}

// openOutage records an outage opening at start into the delta.
func (d *rollupKindDelta) openOutage(start time.Time) {
	d.openCount++
	d.openSec += start.Unix()
	d.openNsec += int64(start.Nanosecond())
}

// closeOutage records the outage that opened at start closing after dur.
func (d *rollupKindDelta) closeOutage(start time.Time, dur time.Duration) {
	d.openCount--
	d.openSec -= start.Unix()
	d.openNsec -= int64(start.Nanosecond())
	d.closedOutageDur += dur
}

// price folds one price observation into the delta.
func (d *rollupDelta) price(p float64) {
	if d.priceCount == 0 || p < d.priceMin {
		d.priceMin = p
	}
	if d.priceCount == 0 || p > d.priceMax {
		d.priceMax = p
	}
	d.priceCount++
	d.priceSum += p
}

// apply folds the delta into one rollup. The aggregate fold runs first
// under the rollup's mutex and the generation bump last (atomic, so
// readers probing cache validity never block): a reader that observes
// the new generation is then guaranteed to observe the folded
// aggregates, which is what lets Summary cache rollup-backed results
// keyed by generation.
func (r *rollup) apply(d *rollupDelta) {
	r.mu.Lock()
	a := &r.agg
	for k := range d.byKind {
		kd, ka := &d.byKind[k], &a.byKind[k]
		ka.probes += kd.probes
		ka.rejected += kd.rejected
		ka.outages += kd.outages
		ka.closedOutageDur += kd.closedOutageDur
		ka.open.count += kd.openCount
		ka.open.sec += kd.openSec
		ka.open.nsec += kd.openNsec
	}
	a.probeCount += d.probeCount
	a.probeCost += d.probeCost
	a.spikes += d.spikes
	a.spikesAboveOD += d.spikesAboveOD
	if d.maxCrossRatio > a.maxCrossRatio {
		a.maxCrossRatio = d.maxCrossRatio
	}
	if d.priceCount > 0 {
		if a.priceCount == 0 || d.priceMin < a.priceMin {
			a.priceMin = d.priceMin
		}
		if a.priceCount == 0 || d.priceMax > a.priceMax {
			a.priceMax = d.priceMax
		}
		a.priceCount += d.priceCount
		a.priceSum += d.priceSum
	}
	r.mu.Unlock()
	if d.records != 0 {
		r.gen.Add(d.records)
	}
}

// ScopeAggregates is the rollup-backed summary of one scope: every field
// is maintained incrementally on the append path, so reading it never
// touches a market shard.
type ScopeAggregates struct {
	Region market.Region
	// Product is empty for region-level entries.
	Product market.Product
	// Markets counts the scope's markets with at least one record.
	Markets int

	TotalProbes  int
	ODProbes     int
	ODRejected   int
	SpotProbes   int
	SpotRejected int
	ProbeCost    float64

	// ODOutages / SpotOutages count detected outage intervals, ongoing
	// included; the durations measure total outage time to `now`.
	ODOutages     int
	SpotOutages   int
	ODOutageDur   time.Duration
	SpotOutageDur time.Duration

	Spikes        int
	SpikesAboveOD int
	MaxCrossRatio float64

	PriceSamples int
	PriceMin     float64
	PriceMean    float64
	PriceMax     float64
}

// snapshot renders the rollup's aggregate state at instant now.
func (r *rollup) snapshot(now time.Time) ScopeAggregates {
	r.mu.Lock()
	a := r.agg
	r.mu.Unlock()
	od := a.byKind[ProbeOnDemand-1]
	spot := a.byKind[ProbeSpot-1]
	out := ScopeAggregates{
		Region:        r.scope.region,
		Product:       r.scope.product,
		Markets:       a.markets,
		TotalProbes:   a.probeCount,
		ODProbes:      od.probes,
		ODRejected:    od.rejected,
		SpotProbes:    spot.probes,
		SpotRejected:  spot.rejected,
		ProbeCost:     a.probeCost,
		ODOutages:     od.outages,
		SpotOutages:   spot.outages,
		ODOutageDur:   od.outageDur(now),
		SpotOutageDur: spot.outageDur(now),
		Spikes:        a.spikes,
		SpikesAboveOD: a.spikesAboveOD,
		MaxCrossRatio: a.maxCrossRatio,
		PriceSamples:  a.priceCount,
		PriceMin:      a.priceMin,
		PriceMax:      a.priceMax,
	}
	if a.priceCount > 0 {
		out.PriceMean = a.priceSum / float64(a.priceCount)
	}
	return out
}

// merge folds another scope's aggregates into s (used when a read spans
// several rollup entries, e.g. a product filter across all regions).
func (s *ScopeAggregates) merge(o ScopeAggregates) {
	s.Markets += o.Markets
	s.TotalProbes += o.TotalProbes
	s.ODProbes += o.ODProbes
	s.ODRejected += o.ODRejected
	s.SpotProbes += o.SpotProbes
	s.SpotRejected += o.SpotRejected
	s.ProbeCost += o.ProbeCost
	s.ODOutages += o.ODOutages
	s.SpotOutages += o.SpotOutages
	s.ODOutageDur += o.ODOutageDur
	s.SpotOutageDur += o.SpotOutageDur
	s.Spikes += o.Spikes
	s.SpikesAboveOD += o.SpikesAboveOD
	if o.MaxCrossRatio > s.MaxCrossRatio {
		s.MaxCrossRatio = o.MaxCrossRatio
	}
	if o.PriceSamples > 0 {
		if s.PriceSamples == 0 || o.PriceMin < s.PriceMin {
			s.PriceMin = o.PriceMin
		}
		if s.PriceSamples == 0 || o.PriceMax > s.PriceMax {
			s.PriceMax = o.PriceMax
		}
		// Recombine the means exactly via the implied sums.
		sum := s.PriceMean*float64(s.PriceSamples) + o.PriceMean*float64(o.PriceSamples)
		s.PriceSamples += o.PriceSamples
		s.PriceMean = sum / float64(s.PriceSamples)
	}
}

// rollupFor returns the rollup of scope, creating it on first use. Only
// write paths (shard creation) call it; readers use rollupLookup.
func (s *Store) rollupFor(scope rollupScope) *rollup {
	s.mu.RLock()
	r := s.rollups[scope]
	s.mu.RUnlock()
	if r != nil {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r = s.rollups[scope]; r == nil {
		r = &rollup{scope: scope}
		s.rollups[scope] = r
		s.rollupList = nil
	}
	return r
}

// rollupLookup returns the rollup of scope without creating it.
func (s *Store) rollupLookup(scope rollupScope) *rollup {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rollups[scope]
}

// sortedRollups returns every rollup entry ordered by (region, product),
// region-level entries (empty product) first within their region. The
// slice is rebuilt only when a new scope appeared.
func (s *Store) sortedRollups() []*rollup {
	s.mu.RLock()
	list := s.rollupList
	s.mu.RUnlock()
	if list != nil {
		return list
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rollupList == nil {
		list = make([]*rollup, 0, len(s.rollups))
		for _, r := range s.rollups {
			list = append(list, r)
		}
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i].scope, list[j].scope
			if a.region != b.region {
				return a.region < b.region
			}
			return a.product < b.product
		})
		s.rollupList = list
	}
	return s.rollupList
}

// RegionAggregates returns the region-level rollups at instant now (used
// to measure ongoing outages), in region order. This is the O(regions)
// read behind fleet-wide summaries: no market shard is touched.
func (s *Store) RegionAggregates(now time.Time) []ScopeAggregates {
	var out []ScopeAggregates
	for _, r := range s.sortedRollups() {
		if r.scope.product != "" {
			continue
		}
		out = append(out, r.snapshot(now))
	}
	return out
}

// RegionProductAggregates returns the (region, product) rollups at instant
// now, ordered by region then product.
func (s *Store) RegionProductAggregates(now time.Time) []ScopeAggregates {
	var out []ScopeAggregates
	for _, r := range s.sortedRollups() {
		if r.scope.product == "" {
			continue
		}
		out = append(out, r.snapshot(now))
	}
	return out
}

// ScopeAggregatesFor returns the rollup aggregates of one scope at instant
// now. Region and product may each be empty for "all": a (region, product)
// or (region) scope reads exactly one rollup entry; a product-only or
// fully-open scope folds the O(regions) matching entries. The second
// return is false when the scope has no records at all.
func (s *Store) ScopeAggregatesFor(region market.Region, product market.Product, now time.Time) (ScopeAggregates, bool) {
	if region != "" {
		r := s.rollupLookup(rollupScope{region: region, product: product})
		if r == nil {
			return ScopeAggregates{Region: region, Product: product}, false
		}
		return r.snapshot(now), true
	}
	out := ScopeAggregates{Product: product}
	found := false
	for _, r := range s.sortedRollups() {
		if r.scope.product != product {
			continue
		}
		found = true
		out.merge(r.snapshot(now))
	}
	return out, found
}

// GlobalGeneration returns the number of records ever appended to the
// store, any market, any kind — the whole-store cache-invalidation signal,
// one atomic load.
func (s *Store) GlobalGeneration() uint64 {
	return s.gen.Load()
}

// GenerationOfScope returns the append generation of a (region, product)
// scope, where either dimension may be empty for "all". It is equivalent
// to ScopeGeneration over the same filter — the sum of the scope's shard
// generations — but reads the rollup counters instead of walking shards:
// O(1) for global, region, and (region, product) scopes, O(regions) for a
// product-only scope.
func (s *Store) GenerationOfScope(region market.Region, product market.Product) uint64 {
	switch {
	case region == "" && product == "":
		return s.gen.Load()
	case region != "":
		if r := s.rollupLookup(rollupScope{region: region, product: product}); r != nil {
			return r.gen.Load()
		}
		return 0
	default: // product-only: fold the matching (region, product) entries.
		var total uint64
		for _, r := range s.sortedRollups() {
			if r.scope.product == product {
				total += r.gen.Load()
			}
		}
		return total
	}
}
