package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// The rollup layer is the store's second index level: above the per-market
// shards sit one entry per (region, product) and one per region, updated
// after every shard append round. Scope reads that only need totals —
// Engine.Summary, /v2/health, the response cache's scope-generation probes
// — read O(regions) rollup entries instead of walking every market shard.
//
// Every entry carries two things:
//
//   - an append-generation counter (atomic, lock-free to read): the number
//     of records of any kind ever appended inside the scope, which is the
//     sum of the scope's shard generations by construction;
//   - its member shards in adoption order, the scope index ScanScope
//     (scan.go) visits.
//
// A region-level entry also folds the region's aggregate — probe and
// rejection counters by kind, outage counts and durations, spike and
// crossing counts — from the rollupDeltas of the shard append paths: what
// Summary and /v2/health read. Nothing reads a (region, product)
// aggregate, so those entries fold none.
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

// rollup is one scope's entry in the rollup layer.
type rollup struct {
	scope rollupScope

	// gen counts every record ever appended to the scope's shards. Atomic
	// so cache-validity probes never take a lock.
	gen atomic.Uint64

	mu sync.Mutex
	// members is the scope index: the scope's shards in adoption order,
	// append-only, so a header copied under mu stays valid after unlock.
	members []*shard
	// agg is a region-level entry's aggregate; zero in a (region, product)
	// entry.
	agg rollupAgg
}

// rollupKindAgg aggregates one contract kind across a region's shards, or
// across one append round's records.
type rollupKindAgg struct {
	probes   int
	rejected int
	// outages counts every derived outage interval, open ones included.
	outages int
	// closedOutageDur sums End-Start over closed outages.
	closedOutageDur time.Duration
	// open tracks the ongoing outages: +start when an outage opens,
	// −start when it closes.
	open openOutageSum
}

// outageDur returns the region's total detected outage time measured to
// now, ongoing outages included.
func (a *rollupKindAgg) outageDur(now time.Time) time.Duration {
	return a.closedOutageDur + a.open.durTo(now)
}

// rollupAgg is the additive aggregate state of one region. Every field
// is additive, so one append round's records fold into a rollupAgg of
// their own (rollupDelta) that applies with one lock acquisition.
type rollupAgg struct {
	byKind     [probeKinds]rollupKindAgg
	probeCount int // all kinds, unknown included

	spikes        int
	spikesAboveOD int
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

// add registers an outage opening at start; dir -1 removes it again when
// the outage closes.
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

// rollupDelta accumulates the rollup-visible effect of one append (or one
// batched append) so the shard pays one rollup round per batch, not per
// record.
type rollupDelta struct {
	records uint64 // generation bumps
	rollupAgg

	// emit arms change-feed event construction for the round (set by
	// shard.appendRound when the feed has subscribers); events accumulates
	// the round's typed events, published once after the shard lock is
	// released (shard.publish).
	emit   bool
	events []Event
}

// apply folds the delta into a region-level rollup. The aggregate fold
// runs first under the rollup's mutex and the generation bump last
// (atomic, so readers probing cache validity never block): a reader that
// observes the new generation is then guaranteed to observe the folded
// aggregates, which is what lets Summary cache rollup-backed results keyed
// by generation.
func (r *rollup) apply(d *rollupDelta) {
	r.mu.Lock()
	a := &r.agg
	for k := range d.byKind {
		ka, kd := &a.byKind[k], &d.byKind[k]
		ka.probes += kd.probes
		ka.rejected += kd.rejected
		ka.outages += kd.outages
		ka.closedOutageDur += kd.closedOutageDur
		ka.open.count += kd.open.count
		ka.open.sec += kd.open.sec
		ka.open.nsec += kd.open.nsec
	}
	a.probeCount += d.probeCount
	a.spikes += d.spikes
	a.spikesAboveOD += d.spikesAboveOD
	r.mu.Unlock()
	r.gen.Add(d.records)
}

// ScopeAggregates is the rollup-backed summary of one region: every field
// is maintained incrementally on the append path, so reading it never
// touches a market shard.
type ScopeAggregates struct {
	Region market.Region
	// Markets counts the region's markets with at least one record: its
	// member shards, since shards are created on first append.
	Markets int

	TotalProbes  int
	ODProbes     int
	ODRejected   int
	SpotProbes   int
	SpotRejected int

	// ODOutages / SpotOutages count detected outage intervals, ongoing
	// included; ODOutageDur measures total on-demand outage time to `now`.
	ODOutages   int
	SpotOutages int
	ODOutageDur time.Duration

	Spikes        int
	SpikesAboveOD int
}

// snapshot renders the rollup's aggregate state at instant now.
func (r *rollup) snapshot(now time.Time) ScopeAggregates {
	r.mu.Lock()
	a, markets := r.agg, len(r.members)
	r.mu.Unlock()
	od := a.byKind[ProbeOnDemand-1]
	spot := a.byKind[ProbeSpot-1]
	return ScopeAggregates{
		Region:        r.scope.region,
		Markets:       markets,
		TotalProbes:   a.probeCount,
		ODProbes:      od.probes,
		ODRejected:    od.rejected,
		SpotProbes:    spot.probes,
		SpotRejected:  spot.rejected,
		ODOutages:     od.outages,
		SpotOutages:   spot.outages,
		ODOutageDur:   od.outageDur(now),
		Spikes:        a.spikes,
		SpikesAboveOD: a.spikesAboveOD,
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

// GlobalGeneration returns the number of records ever appended to the
// store, any market, any kind — the whole-store cache-invalidation signal,
// one atomic load.
func (s *Store) GlobalGeneration() uint64 {
	return s.gen.Load()
}

// GenerationOfScope returns the append generation of a (region, product)
// scope, where either dimension may be empty for "all": the sum of the
// scope's shard generations, read from the rollup counters instead of
// walking shards — O(1) for global, region, and (region, product) scopes,
// O(regions) for a product-only scope. Each append bumps exactly one
// shard's generation, so equal values imply an unchanged scope, and
// appends outside it leave the value untouched: the per-scope
// invalidation a response cache keys on.
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
