// Package store is SpotLight's database. Chapter 3 and Chapter 4 describe
// SpotLight logging every probe, every spot-price trigger event, and every
// request state change "into database"; this package is that database,
// with the query surface the analysis layer (Chapter 5) and the query API
// need.
//
// # Sharded design
//
// The store is sharded per spot market (market.SpotID), and its markets
// are indexed by one append-only dictionary: a shard sits at its market's
// index there, and a read of a market never written inserts nothing. Each
// shard owns its market's probe, spike, price, bid-spread, and revocation
// history behind its own RWMutex, so ingestion of different markets never
// contends on a global lock, and every per-market query
// (OutagesFor, SpikesFor, Prices, OutageOverlap, ...) touches exactly one
// shard. A family other than prices costs nothing until its first row.
//
// A shard holds only what was appended and reads what derives from it
// from its logs: outages from the probes (a rejected probe of a kind
// opens one, the kind's next accepted probe closes it; a shard keeps each
// kind's open start and whether it ever had one) and on-demand price
// crossings, spikes with Ratio >= 1, from the spikes. A sealed
// min/max/sum summary of every 16 consecutive prices lets a windowed
// price fold step over whole chunks instead of their samples.
//
// Every (market, family) series is in time order: an append round that
// goes back in time is refused whole and counted, and recovery and the
// follow stream (a study's dump included) fail on such a record
// (ErrBackInTime). So every window query binary-searches its range instead
// of scanning a history.
//
// Windowed reads (SpikeCrossingsWhere, PriceStatsIn, OutageOverlap) fold
// those logs inside the shard without copying. Global iteration
// methods (Probes, Spikes, Outages, ...) remain available for export and
// offline analysis: they merge across shards in timestamp order,
// resolving ties by market-ID order.
//
// # Rollup hierarchy
//
// Above the shards sits a rollup layer (rollup.go): per-(region, product)
// and per-region append-generation counters, bumped after every append
// round, and a per-region aggregate of probe, outage and spike counts.
// Region summaries (RegionAggregates) and cache-validity probes
// (GenerationOfScope, GlobalGeneration) cost O(regions) or O(1) instead of
// walking every market shard. Each rollup entry also lists its member
// shards: that scope index is how a ranking over a region, a product or
// both visits exactly its own shards, once each, with every fold it needs
// under one read lock (ScanScope, scan.go).
package store

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// ProbeKind distinguishes the two probe types of §2.2.
type ProbeKind int

// Probe kinds.
const (
	// ProbeOnDemand is a request for an on-demand server.
	ProbeOnDemand ProbeKind = iota + 1
	// ProbeSpot is a bid for a spot server.
	ProbeSpot
)

// String names the probe kind.
func (k ProbeKind) String() string {
	switch k {
	case ProbeOnDemand:
		return "on-demand"
	case ProbeSpot:
		return "spot"
	default:
		return "unknown"
	}
}

// Trigger records why SpotLight issued a probe (Chapter 3's policy tree
// and Chapter 4's five probing functions).
type Trigger int

// Probe triggers.
const (
	// TriggerSpike: the market's spot price spiked past the threshold
	// (the RequestOnDemand probing function).
	TriggerSpike Trigger = iota + 1
	// TriggerRelatedSameZone: fan-out to the same family in the same
	// zone after a detected rejection (§3.2.1).
	TriggerRelatedSameZone
	// TriggerRelatedOtherZone: fan-out across availability zones
	// (§3.2.2).
	TriggerRelatedOtherZone
	// TriggerRecheck: the periodic re-probe of an unavailable market
	// until it recovers (the RequestInsufficiency loop).
	TriggerRecheck
	// TriggerPeriodicSpot: the periodic CheckCapacity spot probe (§3.3).
	TriggerPeriodicSpot
	// TriggerCross: a probe of the *other* contract type in the same
	// market after a rejection (od→spot or spot→od, §5.4).
	TriggerCross
	// TriggerBidSpread: part of a BidSpread intrinsic-price search.
	TriggerBidSpread
	// TriggerRevocation: a volatile-market revocation experiment probe.
	TriggerRevocation
	// TriggerPeriodicOD: the naive round-robin on-demand probe used by
	// the ablation baseline (probing without the market signal).
	TriggerPeriodicOD
)

// String names the trigger.
func (tr Trigger) String() string {
	switch tr {
	case TriggerSpike:
		return "spike"
	case TriggerRelatedSameZone:
		return "related-same-zone"
	case TriggerRelatedOtherZone:
		return "related-other-zone"
	case TriggerRecheck:
		return "recheck"
	case TriggerPeriodicSpot:
		return "periodic-spot"
	case TriggerCross:
		return "cross"
	case TriggerBidSpread:
		return "bid-spread"
	case TriggerRevocation:
		return "revocation"
	case TriggerPeriodicOD:
		return "periodic-od"
	default:
		return "unknown"
	}
}

// ProbeRecord is one logged probe: the request, why it was sent, and how
// the platform answered.
type ProbeRecord struct {
	At      time.Time     `json:"at"`
	Market  market.SpotID `json:"market"`
	Kind    ProbeKind     `json:"kind"`
	Trigger Trigger       `json:"trigger"`

	// TriggerMarket is the market whose event caused this probe (equal
	// to Market for direct spike probes).
	TriggerMarket market.SpotID `json:"triggerMarket"`
	// SourceKind is the contract kind whose event triggered this probe:
	// for related and cross probes it distinguishes the four pairs of
	// Fig 5.12 (od-od, od-spot, spot-od, spot-spot).
	SourceKind ProbeKind `json:"sourceKind"`
	// SpikeRatio is spot price / on-demand price at the originating
	// trigger, the x-axis of Figs 5.4-5.8.
	SpikeRatio float64 `json:"spikeRatio"`
	// PriceRatio is the probed market's own spot/on-demand ratio at
	// probe time, the x-axis of Figs 5.10-5.11.
	PriceRatio float64 `json:"priceRatio"`

	Rejected bool    `json:"rejected"`
	Code     string  `json:"code"` // platform error/status code when rejected
	Bid      float64 `json:"bid"`  // spot probes only
	Cost     float64 `json:"cost"` // dollars charged for this probe
}

// SpikeEvent is one threshold crossing of a market's spot price, recorded
// whether or not it was sampled for probing.
type SpikeEvent struct {
	At     time.Time     `json:"at"`
	Market market.SpotID `json:"market"`
	Price  float64       `json:"price"`
	Ratio  float64       `json:"ratio"` // price / on-demand price
	Probed bool          `json:"probed"`
}

// OutageRecord is a detected unavailability period for one market and
// contract kind, derived from the probe stream: it opens at the first
// rejected probe and closes at the first subsequent fulfilled probe.
type OutageRecord struct {
	Market market.SpotID `json:"market"`
	Kind   ProbeKind     `json:"kind"`
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end"` // zero while ongoing
}

// Duration returns the outage length; ongoing outages are measured up to
// now.
func (o OutageRecord) Duration(now time.Time) time.Duration {
	end := o.End
	if end.IsZero() {
		end = now
	}
	return end.Sub(o.Start)
}

// Overlaps reports whether the outage intersects [from, to].
func (o OutageRecord) Overlaps(from, to time.Time) bool {
	if o.Start.After(to) {
		return false
	}
	return o.End.IsZero() || o.End.After(from)
}

// BidSpreadRecord is the outcome of one intrinsic-price search (§5.1.2,
// Chapter 4's BidSpread probing function).
type BidSpreadRecord struct {
	At        time.Time     `json:"at"`
	Market    market.SpotID `json:"market"`
	Published float64       `json:"published"`
	Intrinsic float64       `json:"intrinsic"` // lowest bid that actually wins
	Attempts  int           `json:"attempts"`  // spot requests consumed
}

// PricePoint is one observed published price sample.
type PricePoint struct {
	At    time.Time `json:"at"`
	Price float64   `json:"price"`
}

// RevocationRecord is one completed revocation-watch observation
// (Chapter 4's Revocation probing function): SpotLight held a spot
// instance at the given bid until the platform revoked it.
type RevocationRecord struct {
	At     time.Time     `json:"at"` // when the revocation landed
	Market market.SpotID `json:"market"`
	Bid    float64       `json:"bid"`
	Held   time.Duration `json:"held"` // how long the instance survived
}

// Store is the sharded database: every market's records live in their own
// shard behind their own lock, as the logs they were appended to.
// Writes to different markets never contend, per-market queries touch only
// their shard, and the global iteration methods merge across shards in
// timestamp order. All methods are safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	// shards holds each market's shard at the market's index in
	// dicts.markets: a market's first write inserts it. An index whose
	// value only ever appeared as a probe's trigger market holds nil.
	shards []*shard
	// sorted caches the shards in market-ID order for deterministic
	// global iteration; nil when a new shard invalidated it.
	sorted []*shard

	// gen counts every record ever appended, any market — the global
	// scope-generation counter of the rollup hierarchy.
	gen atomic.Uint64
	// rollups holds the scope entries: one per (region, product) seen on
	// the write path plus one region-level entry per region (empty
	// product). rollupList caches them sorted.
	rollups    map[rollupScope]*rollup
	rollupList []*rollup

	// persist is the durability engine of a store opened with Open; nil
	// for in-memory stores built with New. Set once before the store is
	// shared (Open wires it ahead of recovery), immutable afterwards.
	persist *Persister

	// feed is the store's change-feed hub (feed.go): every append round
	// publishes its typed events here after the shard lock is released.
	feed *Feed

	// metrics is the store's instrument block (metrics.go), allocated at
	// construction and shared into every shard; its fields stay nil (all
	// instruments no-ops) until EnableMetrics arms them.
	metrics *storeMetrics

	// dicts holds the values the shards' probe rows index (columns.go);
	// its market table is also the shards' index.
	dicts probeDicts
}

// New returns an empty store.
func New() *Store {
	s := &Store{
		rollups: make(map[rollupScope]*rollup),
		metrics: &storeMetrics{},
	}
	s.feed = newFeed(&s.gen, defaultRingCapacity)
	return s
}

// shardFor returns the shard of id, creating it on first write.
func (s *Store) shardFor(id market.SpotID) *shard {
	i := s.dicts.markets.id(id, noPrev)
	if sh := s.shardAt(i); sh != nil {
		return sh
	}
	return s.adoptShard(s.newShard(i))
}

// newShard returns an empty shard of the market at index i of
// s.dicts.markets, not yet adopted.
func (s *Store) newShard(i uint32) *shard { return &shard{store: s, idx: i} }

// adoptShard wires sh to its region-level and (region, product) rollups —
// which every subsequent append round publishes to — and publishes it; if the
// market already has a shard (a racing first write) that one is returned
// instead. Live first writes adopt an empty shard, parallel recovery
// (replay.go) one whose logs already hold the recovered records; it
// publishes their accumulated rollup delta afterwards.
func (s *Store) adoptShard(sh *shard) *shard {
	// Resolve the rollups outside the store lock (rollupFor takes it).
	id := sh.id()
	rp := s.rollupFor(rollupScope{region: id.Region(), product: id.Product})
	rg := s.rollupFor(rollupScope{region: id.Region()})
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := int(sh.idx) + 1; n > len(s.shards) {
		s.shards = append(s.shards, make([]*shard, n-len(s.shards))...)
	}
	if cur := s.shards[sh.idx]; cur != nil {
		return cur
	}
	sh.rp, sh.rg = rp, rg
	s.shards[sh.idx] = sh
	s.sorted = nil
	// Shards exist iff they hold at least one record, so adoption is the
	// scope's market count ticking up — and the one place a shard joins the
	// scope index, whether it came from a first write, recovery or a
	// follower's apply.
	for _, r := range [...]*rollup{rp, rg} {
		r.mu.Lock()
		r.members = append(r.members, sh)
		r.mu.Unlock()
	}
	return sh
}

// lookup returns the shard of id without creating it: a market never
// written adds neither a shard nor a dictionary entry.
func (s *Store) lookup(id market.SpotID) *shard {
	i, ok := s.dicts.markets.find(id)
	if !ok {
		return nil
	}
	return s.shardAt(i)
}

// shardAt returns the shard at market index i, nil when it has none.
func (s *Store) shardAt(i uint32) *shard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(i) < len(s.shards) {
		return s.shards[i]
	}
	return nil
}

// shardList returns every shard in market-ID order. The returned slice is
// rebuilt (never mutated) when shards are added, so it is safe to iterate
// without holding the store lock.
func (s *Store) shardList() []*shard {
	s.mu.RLock()
	sorted := s.sorted
	s.mu.RUnlock()
	if sorted != nil {
		return sorted
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted == nil {
		list := make([]*shard, 0, len(s.shards))
		for _, sh := range s.shards {
			if sh != nil {
				list = append(list, sh)
			}
		}
		// Market-ID order is the order of the rendered IDs (SpotID.Compare).
		slices.SortFunc(list, func(a, b *shard) int { return a.id().Compare(b.id()) })
		s.sorted = list
	}
	return s.sorted
}

// The runs mergeByTime merges across captures: one family's records of one
// capture, in append order.
func (c shardCapture) probeRun() []ProbeRecord {
	return rows(nil, c.probes, c.owner, probeOf)
}

func (c shardCapture) spikeRun() []SpikeEvent {
	return rows(nil, c.spikes, c.owner, spikeOf)
}

// outageRun reads the capture's outages from its probes, in the order
// they opened.
func (c shardCapture) outageRun() []OutageRecord {
	return outageRecords(nil, c.probes, c.owner, -1)
}

// mergeByTime collects one record run per source — live shards, or the
// shard captures of a consistent cut — and merges them into one
// timestamp-ordered slice by one stable sort of the runs laid end to end:
// records of one source keep their append order and ties across sources
// resolve by source order, which callers build in market-ID order.
func mergeByTime[S, T any](sources []S, collect func(S) []T, at func(T) time.Time) []T {
	var out []T
	for _, src := range sources {
		out = append(out, collect(src)...)
	}
	slices.SortStableFunc(out, func(a, b T) int { return at(a).Compare(at(b)) })
	return out
}

// AppendProbe logs one probe and folds it, and the outage it opens or
// closes, into its region's aggregate.
func (s *Store) AppendProbe(r ProbeRecord) {
	appendRows(s.shardFor(r.Market), []ProbeRecord{r})
}

// AppendSpike logs one threshold-crossing event.
func (s *Store) AppendSpike(e SpikeEvent) {
	appendRows(s.shardFor(e.Market), []SpikeEvent{e})
}

// AppendBidSpread logs one intrinsic-price search result.
func (s *Store) AppendBidSpread(r BidSpreadRecord) {
	appendRows(s.shardFor(r.Market), []BidSpreadRecord{r})
}

// AppendRevocation logs one completed revocation watch.
func (s *Store) AppendRevocation(r RevocationRecord) {
	appendRows(s.shardFor(r.Market), []RevocationRecord{r})
}

// RecordPrice appends one price observation for a market. Callers decide
// which markets to track densely (watched markets) versus sample.
func (s *Store) RecordPrice(id market.SpotID, p PricePoint) {
	appendRows(s.shardFor(id), []PricePoint{p})
}

// Markets returns every market with at least one record of any kind, in
// market-ID order.
func (s *Store) Markets() []market.SpotID {
	shards := s.shardList()
	out := make([]market.SpotID, len(shards))
	for i, sh := range shards {
		out[i] = sh.id()
	}
	return out
}

// RevocationsFor returns one market's revocation observations within
// [from, to], oldest first.
func (s *Store) RevocationsFor(id market.SpotID, from, to time.Time) []RevocationRecord {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	return sh.revocationsIn(nil, stamp(from), stamp(to))
}

// Probes returns all probes merged across shards, oldest first.
func (s *Store) Probes() []ProbeRecord {
	return mergeByTime(s.captureAll(), shardCapture.probeRun, probeAt)
}

// ProbesWhere returns copies of probes matching keep, oldest first.
func (s *Store) ProbesWhere(keep func(ProbeRecord) bool) []ProbeRecord {
	return mergeByTime(s.captureAll(), func(c shardCapture) []ProbeRecord {
		return slices.DeleteFunc(c.probeRun(), func(r ProbeRecord) bool { return !keep(r) })
	}, probeAt)
}

// ProbesInWindow returns the probes with At inside [from, to], optionally
// filtered by keep, using each shard's time index. Results are grouped by
// market in market-ID order.
func (s *Store) ProbesInWindow(from, to time.Time, keep func(ProbeRecord) bool) []ProbeRecord {
	var out []ProbeRecord
	f, t := stamp(from), stamp(to)
	for _, sh := range s.shardList() {
		start := len(out)
		out = sh.probesIn(out, f, t)
		if keep == nil {
			continue
		}
		kept := out[:start]
		for _, r := range out[start:] {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	return out
}

// ProbeCount returns the number of logged probes.
func (s *Store) ProbeCount() int {
	total := 0
	for _, sh := range s.shardList() {
		sh.mu.RLock()
		total += len(value(sh.probes))
		sh.mu.RUnlock()
	}
	return total
}

// Spikes returns all spike events merged across shards, oldest first.
func (s *Store) Spikes() []SpikeEvent {
	return mergeByTime(s.captureAll(), shardCapture.spikeRun, spikeAt)
}

// SpikesFor returns the spike events of one market within [from, to].
func (s *Store) SpikesFor(id market.SpotID, from, to time.Time) []SpikeEvent {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	return sh.spikesIn(nil, stamp(from), stamp(to))
}

// SpikesInWindow returns the spike events with At inside [from, to] of
// every market accepted by keep (all markets when keep is nil), using each
// shard's time index. Results are grouped by market in market-ID order.
func (s *Store) SpikesInWindow(from, to time.Time, keep func(market.SpotID) bool) []SpikeEvent {
	var out []SpikeEvent
	f, t := stamp(from), stamp(to)
	for _, sh := range s.shardList() {
		if keep != nil && !keep(sh.id()) {
			continue
		}
		out = sh.spikesIn(out, f, t)
	}
	return out
}

// CrossingStats summarizes one market's on-demand price crossings
// (spikes with Ratio >= 1) inside a window.
type CrossingStats struct {
	// Crossings is how many times the spot price crossed the on-demand
	// price in the window.
	Crossings int
	// MaxRatio is the largest crossing ratio observed in the window.
	MaxRatio float64
}

// SpikeCrossingsWhere returns per-market crossing statistics for
// [from, to], folded from each shard's spike log, for the markets accepted
// by keep (all markets when nil). Markets with no crossings in the window
// are absent; shards outside the scope are skipped entirely, so a region-
// or product-filtered ranking touches only the matching shards' spikes.
func (s *Store) SpikeCrossingsWhere(from, to time.Time, keep func(market.SpotID) bool) map[market.SpotID]CrossingStats {
	out := make(map[market.SpotID]CrossingStats)
	f, t := stamp(from), stamp(to)
	for _, sh := range s.shardList() {
		id := sh.id()
		if keep != nil && !keep(id) {
			continue
		}
		sh.mu.RLock()
		st := sh.crossingStatsLocked(f, t)
		sh.mu.RUnlock()
		if st.Crossings > 0 {
			out[id] = st
		}
	}
	return out
}

// CrossingStatsFor returns one market's crossing statistics for [from, to]
// from its shard's spike log; the zero stats when the market has no
// shard.
func (s *Store) CrossingStatsFor(id market.SpotID, from, to time.Time) CrossingStats {
	sh := s.lookup(id)
	if sh == nil {
		return CrossingStats{}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.crossingStatsLocked(stamp(from), stamp(to))
}

// BidSpreadsFor returns one market's intrinsic-price search results.
func (s *Store) BidSpreadsFor(id market.SpotID) []BidSpreadRecord {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.bidSpreads == nil {
		return nil
	}
	return rows(nil, *sh.bidSpreads, sh.owner(), bidSpreadOf)
}

// Outages returns all detected outage intervals merged across shards,
// ordered by start time; ongoing ones keep a zero End.
func (s *Store) Outages() []OutageRecord {
	return mergeByTime(s.captureAll(), shardCapture.outageRun, outageAt)
}

// OutagesFor returns detected outages for one market and contract kind,
// in the order they opened.
func (s *Store) OutagesFor(id market.SpotID, kind ProbeKind) []OutageRecord {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ki, ok := kindIndex(kind); ok && sh.hadOutage[ki] {
		return outageRecords(nil, *sh.probes, sh.owner(), ki)
	}
	return nil
}

// OutageOverlap returns how much of [from, to] is covered by the market's
// detected outages of the given kind — the window arithmetic behind every
// unavailability query, computed inside the shard without copying.
func (s *Store) OutageOverlap(id market.SpotID, kind ProbeKind, from, to time.Time) time.Duration {
	sh := s.lookup(id)
	if sh == nil {
		return 0
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.outageOverlapLocked(kind, stamp(from), stamp(to))
}

// Prices returns a copy of the recorded price series of a market.
func (s *Store) Prices(id market.SpotID) []PricePoint {
	sh := s.lookup(id)
	if sh == nil {
		return []PricePoint{}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ps := sh.prices.series()
	return ps.rows([]PricePoint{})
}

// PricesIn returns the recorded price points of a market inside [from, to],
// oldest first, located by binary search.
func (s *Store) PricesIn(id market.SpotID, from, to time.Time) []PricePoint {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	return sh.pricesIn(nil, stamp(from), stamp(to))
}

// PriceWindowStats is the windowed price summary of one market, folded
// inside its shard without copying the series.
type PriceWindowStats struct {
	Samples int
	Min     float64
	Mean    float64
	Max     float64
}

// PriceStatsIn computes min/mean/max over the recorded prices of a market
// inside [from, to]. Unlike PricesIn it allocates nothing: the fold runs
// in-shard over the binary-searched window.
func (s *Store) PriceStatsIn(id market.SpotID, from, to time.Time) PriceWindowStats {
	sh := s.lookup(id)
	if sh == nil {
		return PriceWindowStats{}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.priceStatsLocked(stamp(from), stamp(to))
}

// PricedMarkets returns the markets with at least one recorded price, in
// market-ID order.
func (s *Store) PricedMarkets() []market.SpotID {
	var out []market.SpotID
	for _, sh := range s.shardList() {
		sh.mu.RLock()
		ps := sh.prices.series()
		sh.mu.RUnlock()
		n := ps.len()
		if n > 0 {
			out = append(out, sh.id())
		}
	}
	return out
}

// Generation returns the market's append generation: the number of records
// of any kind ever appended to its shard (0 when the market has no shard).
// Every append bumps exactly one market's generation, so a cached query
// result derived from this market is valid iff the generation is unchanged.
func (s *Store) Generation(id market.SpotID) uint64 {
	sh := s.lookup(id)
	if sh == nil {
		return 0
	}
	return sh.gen.Load()
}
