package core

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
	"spotlight/internal/store"
)

// Counters are the service's operational statistics.
type Counters struct {
	SpikesSeen     int64 // threshold crossings observed
	SpikesSampled  int64 // crossings that passed the sampling coin
	ODProbes       int64 // on-demand probes issued
	ODRejections   int64 // probes answered InsufficientInstanceCapacity
	SpotProbes     int64 // spot probes issued
	SpotRejections int64 // probes answered capacity-not-available
	BidSpreadRuns  int64
	Revocations    int64
	BudgetDenied   int64 // probes suppressed by the budget controller
	QuotaSkips     int64 // probes skipped due to platform API quotas
}

// marketMon is the per-market monitor: SpotLight's Chapter 4 "market
// class" with its probe manager state. Its ID is the catalog's entry at
// idx (Service.id); its instants are Unix nanoseconds, zero for never.
type marketMon struct {
	// app writes straight to this market's store shard, skipping the
	// store-level shard lookup on every ingested record.
	app *store.Appender
	// pending buffers the tick's probe records; OnTick flushes them in one
	// batched append per market (see Service.flushProbes) and drops them,
	// so no market holds its largest tick's buffer for good.
	pending []store.ProbeRecord

	od                float64
	price             float64
	lastRecordedPrice float64
	lastSample        int64

	// On-demand outage handling (RequestInsufficiency).
	nextODRecheck int64
	relatedUntil  int64
	nextRelated   int64
	spikeRatio    float64 // ratio of the spike that opened the outage

	// Spot outage handling (CheckCapacity holds).
	nextSpotRecheck int64
	heldReq         cloud.RequestID

	idx        int32 // catalog index
	above      bool  // currently above the spike threshold
	watched    bool
	odOutage   bool
	spotOutage bool
}

// Service is the SpotLight information service.
type Service struct {
	cfg    Config
	prov   Provider
	cat    *market.Catalog
	db     *store.Store
	budget *budgetController
	rng    *rand.Rand

	regions []market.Region
	// mons holds one monitor per catalog market at its catalog index
	// (cloud.MarketPrice.Index, market.Catalog.SpotIndex); one without an
	// Appender lies outside the monitored regions. The region scan
	// addresses it directly, the related-market fan-out through monitor,
	// the periodic probes round-robin.
	mons []marketMon
	// bidSpreads and revocations are Config.BidSpreadMarkets and
	// Config.RevocationMarkets resolved to monitors, in config order.
	bidSpreads  []watch
	revocations []watch

	// activeOD and activeSpot hold the markets in an outage by catalog
	// index.
	activeOD   map[int32]*marketMon
	activeSpot map[int32]*marketMon
	heldCNA    map[market.Region]int

	rrPos           int
	spotProbeCredit float64
	odRRPos         int
	odProbeCredit   float64

	lastTick time.Time
	stats    Counters

	// lastSnapshot is when the durable store was last snapshot (zero
	// until the first tick seeds it); only meaningful when the store has
	// a persister and SnapshotInterval > 0.
	lastSnapshot time.Time

	// dirtyMons lists the monitors holding buffered probe records this
	// tick, in first-write order; reused across ticks.
	dirtyMons []*marketMon
}

// New builds a SpotLight service over the provider, logging into db.
func New(prov Provider, db *store.Store, cfg Config) (*Service, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	cat := prov.Catalog()
	regions := cfg.Regions
	if len(regions) == 0 {
		regions = cat.Regions()
	}

	s := &Service{
		cfg:        cfg,
		prov:       prov,
		cat:        cat,
		db:         db,
		budget:     newBudgetController(cfg.Budget, cfg.BudgetWindow, prov.Now()),
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0x5b07_11fe)),
		regions:    regions,
		mons:       make([]marketMon, len(cat.SpotMarkets())),
		activeOD:   make(map[int32]*marketMon),
		activeSpot: make(map[int32]*marketMon),
		heldCNA:    make(map[market.Region]int),
	}

	watched := make(map[market.SpotID]bool, len(cfg.WatchedMarkets))
	for _, id := range cfg.WatchedMarkets {
		watched[id] = true
	}
	inRegions := make(map[market.Region]bool, len(regions))
	for _, r := range regions {
		inRegions[r] = false
	}
	for i, id := range cat.SpotMarkets() {
		r := id.Region()
		if _, ok := inRegions[r]; !ok {
			continue
		}
		inRegions[r] = true
		od, err := cat.SpotODPrice(id)
		if err != nil {
			return nil, fmt.Errorf("core: price for %v: %w", id, err)
		}
		s.mons[i] = marketMon{
			idx:     int32(i),
			od:      od,
			watched: watched[id],
			app:     s.db.Appender(id),
		}
	}
	for r, seen := range inRegions {
		if !seen {
			return nil, fmt.Errorf("core: region %q has no markets in the catalog", r)
		}
	}
	s.bidSpreads = s.resolve(cfg.BidSpreadMarkets)
	s.revocations = s.resolve(cfg.RevocationMarkets)
	return s, nil
}

// watch is the state of a per-market experiment: the BidSpread search's
// next run, or the spot instance the Revocation watch keeps alive, its
// bid, since when it runs and how many of its hours the budget has paid.
type watch struct {
	mon      *marketMon
	next     time.Time
	instance cloud.InstanceID
	bid      float64
	since    time.Time
	charged  time.Duration
}

// resolve maps configured market IDs to watches of their monitors, in
// order, dropping repeats and markets outside the monitored regions.
func (s *Service) resolve(ids []market.SpotID) []watch {
	var out []watch
	for _, id := range ids {
		mon := s.monitor(id)
		if mon != nil && !slices.ContainsFunc(out, func(w watch) bool { return w.mon == mon }) {
			out = append(out, watch{mon: mon})
		}
	}
	return out
}

// id returns mon's market ID.
func (s *Service) id(mon *marketMon) market.SpotID { return s.cat.SpotMarkets()[mon.idx] }

// monitor returns id's monitor; nil for a market outside the catalog or
// the monitored regions.
func (s *Service) monitor(id market.SpotID) *marketMon {
	if i, ok := s.cat.SpotIndex(id); ok {
		if mon := &s.mons[i]; mon.app != nil {
			return mon
		}
	}
	return nil
}

// Stats returns a copy of the operational counters.
func (s *Service) Stats() Counters { return s.stats }

// Spent returns the dollars the budget controller has charged.
func (s *Service) Spent() float64 { return s.budget.Spent() }

// OnTick runs one monitoring cycle: it reads the current prices of every
// monitored region, fires the market-based probing policy on threshold
// crossings, advances re-probe schedules, issues the periodic spot
// capacity probes, and runs BidSpread and revocation experiments that are
// due. Call it once per platform tick.
func (s *Service) OnTick() {
	now := s.prov.Now()
	dt := time.Duration(0)
	if !s.lastTick.IsZero() {
		dt = now.Sub(s.lastTick)
	}
	s.lastTick = now

	for _, r := range s.regions {
		s.scanRegion(r, now)
	}
	s.runODRechecks(now)
	s.runSpotRechecks(now)
	s.runPeriodicSpotProbes(now, dt)
	s.runPeriodicODProbes(now, dt)
	s.runBidSpreads(now)
	s.runRevocationWatch(now)
	s.flushProbes()
	s.persistTick(now)
}

// persistTick drives the durable store's lifecycle once per tick: the
// WAL flushes (making this tick's records crash-durable), the clock note
// advances, and — when a snapshot interval is configured — the store
// periodically snapshots and compacts. In-memory stores skip all of it.
// Flush/snapshot errors are sticky inside the persister and surface from
// Close, so a transient disk problem never takes down monitoring.
func (s *Service) persistTick(now time.Time) {
	p := s.db.Persister()
	if p == nil {
		return
	}
	p.NoteClock(now)
	_ = p.Flush()
	if iv := s.cfg.SnapshotInterval; iv > 0 {
		if s.lastSnapshot.IsZero() {
			s.lastSnapshot = now
		} else if now.Sub(s.lastSnapshot) >= iv {
			s.lastSnapshot = now
			_ = p.Snapshot()
		}
	}
}

// Close shuts down the service's durability layer: outstanding WAL bytes
// flush, a final snapshot compacts the log, and the service clock is
// persisted so a restart resumes where this process stopped. It returns
// the first durability error of the whole run (per-tick flush errors are
// sticky and resurface here). In-memory services return nil. Callers must
// not run OnTick concurrently with or after Close.
func (s *Service) Close() error {
	p := s.db.Persister()
	if p == nil {
		return nil
	}
	return p.Close()
}

// logProbe buffers one probe record on its market's monitor instead of
// appending it immediately: a tick that touches a market several times
// (spike probe, cross probe, related fan-out, recheck) then pays one shard
// lock round and one rollup publish for the market, not one per record.
// The policy code never reads probe state back from the store mid-tick —
// its decisions run on the monitors' own flags — so deferring the append
// to the end of the tick is invisible to the probing logic.
func (s *Service) logProbe(mon *marketMon, rec store.ProbeRecord) {
	if len(mon.pending) == 0 {
		s.dirtyMons = append(s.dirtyMons, mon)
	}
	mon.pending = append(mon.pending, rec)
}

// flushProbes appends every monitor's buffered probe records through its
// bound Appender in one batch per market, preserving within-market order
// (the store's outage derivation depends on it), and drops each buffer
// once the store has copied it. Each batch is also one change-feed publish
// round: live watchers (store.Feed subscribers, /v2/watch streams)
// receive a tick's probes and derived outage transitions as one burst
// per market per tick, not one wakeup per record.
func (s *Service) flushProbes() {
	for _, mon := range s.dirtyMons {
		mon.app.AppendProbes(mon.pending)
		mon.pending = nil
	}
	s.dirtyMons = s.dirtyMons[:0]
}

// scanRegion pulls the region's price snapshot, records prices, and
// triggers spike probes (§3.1: "trigger a probe whenever the spot price
// spikes above a certain threshold").
func (s *Service) scanRegion(r market.Region, now time.Time) {
	ns := now.UnixNano()
	s.prov.EachRegionPrice(r, func(mp cloud.MarketPrice) {
		mon := &s.mons[mp.Index]
		if mon.app == nil {
			return
		}
		mon.price = mp.Spot
		s.recordPrice(mon, now, ns)

		ratio := 0.0
		if mon.od > 0 {
			ratio = mon.price / mon.od
		}
		switch {
		case ratio > s.cfg.Threshold && !mon.above:
			mon.above = true
			s.stats.SpikesSeen++
			probed := false
			// Sample the crossing (§3.4's sampling ratio p). A market
			// already known to be unavailable is on the recheck
			// schedule; a fresh spike probe would be redundant.
			if !mon.odOutage && s.rng.Float64() < s.cfg.SampleProb {
				s.stats.SpikesSampled++
				probed = true
				s.odProbe(mon, now, probeContext{
					trigger:       store.TriggerSpike,
					triggerMarket: mp.ID,
					sourceKind:    store.ProbeSpot,
					spikeRatio:    ratio,
				})
			}
			mon.app.AppendSpike(store.SpikeEvent{
				At: now, Market: mp.ID, Price: mon.price, Ratio: ratio, Probed: probed,
			})
		case ratio <= s.cfg.Threshold && mon.above:
			mon.above = false
		}
	})
}

// recordPrice logs the price series: densely for watched markets, sparsely
// for the rest. ns is now in Unix nanoseconds.
func (s *Service) recordPrice(mon *marketMon, now time.Time, ns int64) {
	switch {
	case mon.watched:
		if mon.price != mon.lastRecordedPrice || mon.lastSample == 0 {
			mon.app.RecordPrice(store.PricePoint{At: now, Price: mon.price})
			mon.lastRecordedPrice = mon.price
			mon.lastSample = ns
		}
	case mon.lastSample == 0 || ns-mon.lastSample >= int64(s.cfg.PriceSampleEvery):
		mon.app.RecordPrice(store.PricePoint{At: now, Price: mon.price})
		mon.lastRecordedPrice = mon.price
		mon.lastSample = ns
	}
}

// sortedMons returns the monitors of an active set in stable ID order, so
// probe order (and hence budget consumption) is reproducible across runs.
func (s *Service) sortedMons(set map[int32]*marketMon) []*marketMon {
	out := make([]*marketMon, 0, len(set))
	for _, mon := range set {
		out = append(out, mon)
	}
	slices.SortFunc(out, func(x, y *marketMon) int {
		a, b := s.id(x), s.id(y)
		return cmp.Or(cmp.Compare(a.Zone, b.Zone), cmp.Compare(a.Type, b.Type), cmp.Compare(a.Product, b.Product))
	})
	return out
}

// runODRechecks re-probes unavailable on-demand markets every δ until they
// recover, and re-probes their related markets inside the related window.
func (s *Service) runODRechecks(now time.Time) {
	ns := now.UnixNano()
	for _, mon := range s.sortedMons(s.activeOD) {
		if ns >= mon.nextODRecheck {
			mon.nextODRecheck = ns + int64(s.cfg.RecheckInterval)
			s.odProbe(mon, now, probeContext{
				trigger:       store.TriggerRecheck,
				triggerMarket: s.id(mon),
				sourceKind:    store.ProbeOnDemand,
				spikeRatio:    mon.spikeRatio,
			})
		}
		if mon.odOutage && !s.cfg.DisableFamilyProbing &&
			ns < mon.relatedUntil && ns >= mon.nextRelated {
			mon.nextRelated = ns + int64(s.cfg.RelatedRecheckInterval)
			s.probeRelated(mon, now, store.ProbeOnDemand)
		}
	}
}

// runSpotRechecks advances held capacity-not-available requests and
// re-probes spot-unavailable markets. Held requests are polled through
// one batched describe call per region, the way Chapter 4's region
// managers conserve API budget.
func (s *Service) runSpotRechecks(now time.Time) {
	ns := now.UnixNano()
	heldByRegion := make(map[market.Region][]*marketMon)
	for _, mon := range s.sortedMons(s.activeSpot) {
		if ns < mon.nextSpotRecheck {
			continue
		}
		mon.nextSpotRecheck = ns + int64(s.cfg.RecheckInterval)
		if mon.heldReq != "" {
			r := s.id(mon).Region()
			heldByRegion[r] = append(heldByRegion[r], mon)
			continue
		}
		s.spotProbe(mon, now, probeContext{
			trigger:       store.TriggerRecheck,
			triggerMarket: s.id(mon),
			sourceKind:    store.ProbeSpot,
		})
	}

	regions := make([]market.Region, 0, len(heldByRegion))
	for r := range heldByRegion {
		regions = append(regions, r)
	}
	slices.Sort(regions)
	for _, r := range regions {
		mons := heldByRegion[r]
		ids := make([]cloud.RequestID, len(mons))
		for i, mon := range mons {
			ids[i] = mon.heldReq
		}
		views, err := s.prov.DescribeSpotRequests(r, ids)
		if err != nil {
			s.stats.QuotaSkips++
			continue // the holds stay; retried at the next due time
		}
		for _, mon := range mons {
			view, ok := views[mon.heldReq]
			if !ok {
				s.releaseHold(mon)
				continue
			}
			s.handleHeldView(mon, view, now)
		}
	}
}

// runPeriodicSpotProbes spreads the daily CheckCapacity budget round-robin
// across all monitored markets (§3.3).
func (s *Service) runPeriodicSpotProbes(now time.Time, dt time.Duration) {
	if len(s.mons) == 0 || dt <= 0 {
		return
	}
	s.spotProbeCredit += float64(s.cfg.SpotProbesPerDay) * dt.Hours() / 24
	for s.spotProbeCredit >= 1 {
		// Advance to the next probeable market: one with a known price
		// that is not already on the spot recheck schedule. Give up
		// after one full rotation so a quiet feed cannot spin forever.
		var mon *marketMon
		for scanned := 0; scanned < len(s.mons); scanned++ {
			cand := &s.mons[s.rrPos]
			s.rrPos = (s.rrPos + 1) % len(s.mons)
			if cand.price > 0 && !cand.spotOutage {
				mon = cand
				break
			}
		}
		if mon == nil {
			s.spotProbeCredit = 0
			return
		}
		s.spotProbeCredit--
		s.spotProbe(mon, now, probeContext{
			trigger:       store.TriggerPeriodicSpot,
			triggerMarket: s.id(mon),
			sourceKind:    store.ProbeSpot,
		})
	}
}

// runPeriodicODProbes is the naive ablation baseline: on-demand probes in
// round robin with no market signal at all. It shares the budget
// controller with the market-based policy, so the two can be compared at
// equal spend.
func (s *Service) runPeriodicODProbes(now time.Time, dt time.Duration) {
	if s.cfg.PeriodicODProbesPerDay <= 0 || len(s.mons) == 0 || dt <= 0 {
		return
	}
	s.odProbeCredit += float64(s.cfg.PeriodicODProbesPerDay) * dt.Hours() / 24
	for s.odProbeCredit >= 1 {
		var mon *marketMon
		for scanned := 0; scanned < len(s.mons); scanned++ {
			cand := &s.mons[s.odRRPos]
			s.odRRPos = (s.odRRPos + 1) % len(s.mons)
			if cand.app != nil && !cand.odOutage {
				mon = cand
				break
			}
		}
		if mon == nil {
			s.odProbeCredit = 0
			return
		}
		s.odProbeCredit--
		s.odProbe(mon, now, probeContext{
			trigger:       store.TriggerPeriodicOD,
			triggerMarket: s.id(mon),
			sourceKind:    store.ProbeOnDemand,
		})
	}
}

// runBidSpreads launches due intrinsic-price searches.
func (s *Service) runBidSpreads(now time.Time) {
	for i := range s.bidSpreads {
		w := &s.bidSpreads[i]
		if now.Before(w.next) {
			continue
		}
		w.next = now.Add(s.cfg.BidSpreadInterval)
		s.bidSpreadSearch(w.mon, now)
	}
}
