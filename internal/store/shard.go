package store

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// probeKinds is the number of contract kinds a shard indexes separately
// (ProbeOnDemand and ProbeSpot).
const probeKinds = 2

// kindIndex maps a ProbeKind to its aggregate slot; records with an
// unknown kind are logged but excluded from per-kind indexes.
func kindIndex(k ProbeKind) (int, bool) {
	if k == ProbeOnDemand || k == ProbeSpot {
		return int(k) - 1, true
	}
	return 0, false
}

// kindAgg is the incrementally-maintained per-kind summary of one shard.
type kindAgg struct {
	probes   int
	rejected int
	// outages counts every derived outage interval, including an open one.
	outages int
	// closedOutageDur sums End-Start over closed outages.
	closedOutageDur time.Duration
	// openOutageStart is the start of the ongoing outage; zero when the
	// kind is currently available.
	openOutageStart time.Time
}

// outageDur returns the total detected outage time measured to now,
// ongoing outage included.
func (a *kindAgg) outageDur(now time.Time) time.Duration {
	d := a.closedOutageDur
	if !a.openOutageStart.IsZero() {
		d += now.Sub(a.openOutageStart)
	}
	return d
}

// shardAgg holds one shard's running summaries, updated on every append so
// aggregate queries never rescan the log.
type shardAgg struct {
	byKind     [probeKinds]kindAgg
	probeCount int // all kinds, unknown included
	probeCost  float64

	spikes        int
	spikesAboveOD int

	priceCount         int
	priceSum           float64
	priceMin, priceMax float64
}

// shard holds every record of one spot market behind its own lock, so
// writes to different markets never contend and per-market queries never
// scan other markets' history.
type shard struct {
	mu  sync.RWMutex
	id  market.SpotID
	key string // id.String(), cached for deterministic shard ordering

	// gen counts every record ever appended to this shard (probes, spikes,
	// bid spreads, revocations, prices). It is the per-shard invalidation
	// signal for response caches: any append that could change a query
	// result bumps the generation of exactly one shard, so a cache entry is
	// valid iff the generations of the shards in its scope are unchanged.
	// Atomic so readers never take the shard lock.
	gen atomic.Uint64

	// Record families are stored column-oriented (see columns.go): the
	// windowed folds scan only the columns they read, and captures alias
	// the append-only columns instead of copying them.
	probes      probeCols
	spikes      spikeCols
	bidSpreads  bidSpreadCols
	revocations revocationCols
	prices      priceCols
	outages     outageCols

	// crossings is the incremental index of spikes with Ratio >= 1 (the
	// on-demand price crossings behind every stability/volatility query).
	crossings crossingCols

	// Ordered flags track whether the corresponding slice is appended in
	// non-decreasing time order; while true, window queries binary-search
	// instead of scanning.
	probesOrdered      bool
	spikesOrdered      bool
	crossingsOrdered   bool
	pricesOrdered      bool
	revocationsOrdered bool
	bidSpreadsOrdered  bool
	outagesOrdered     bool // by Start; follows probesOrdered in practice

	// openOutage[k] is 1+index into outages of kind k's ongoing outage;
	// 0 means the kind is currently available.
	openOutage [probeKinds]int

	agg shardAgg

	// rp and rg are the shard's (region, product) and region-level rollup
	// entries, and storeGen the store's global generation counter; every
	// append publishes its rollupDelta to all three. Wired once at shard
	// creation, immutable afterwards.
	rp, rg   *rollup
	storeGen *atomic.Uint64

	// feed is the store's change-feed hub; append paths publish the
	// round's typed events to it alongside the rollup fold. Wired at
	// creation like rp/rg, immutable afterwards.
	feed *Feed

	// persist is the owning store's durability engine, whose log every
	// append round frames into; nil for in-memory stores. Wired at
	// creation like rp/rg, immutable afterwards.
	persist *Persister

	// metrics is the owning store's instrument block, wired at creation
	// like rp/rg and immutable after; its instruments are nil no-ops
	// until Store.EnableMetrics.
	metrics *storeMetrics

	// dicts are the owning store's probe dictionaries, which the probe
	// columns index. Set by newShard, immutable afterwards.
	dicts *probeDicts
}

// walBufPool recycles the scratch buffers append rounds encode WAL frames
// into before taking the shard lock.
var walBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendRound is the one way records enter a shard. Every family's append
// supplies the round's delta (declared in the family's frame and captured
// by its closures, so it stays on the stack) and three batch-level
// closures over its n records; the round owns the ordering:
//
//  1. events copies the batch into feed events before the lock, only when
//     somebody subscribes (one atomic load otherwise) — callers reuse
//     their record buffers across rounds, so events must not alias them;
//  2. frames pre-encodes the WAL frames outside the lock, so the lock-held
//     part of a durable append is a single buffer copy;
//  3. apply lands the records under the shard lock and the frames join the
//     log inside the same hold, so WAL byte order is append order;
//  4. after the unlock an oversized log buffer drains without blocking the
//     shard, the record events get their ordinals (counted under the
//     lock), and publish folds the round into rollups, generation, feed.
//
// The gate is read again under the lock: a subscriber registered since may
// have captured this shard for a snapshot (stream.go) already, so the round
// still reaches it as record events (its outage transitions do not).
func (sh *shard) appendRound(n int, d *rollupDelta, events func(), frames func([]byte) []byte, apply func()) {
	if n == 0 {
		return
	}
	if d.emit = sh.feed.enabled(); d.emit {
		events()
	}
	p := sh.persist
	var enc *[]byte
	if p != nil {
		enc = walBufPool.Get().(*[]byte)
		*enc = frames((*enc)[:0])
	}
	sh.mu.Lock()
	apply()
	// The round's n records are now the shard's newest.
	before := sh.gen.Load() - uint64(n)
	late := !d.emit && sh.feed.enabled()
	oversized := p != nil && p.log.append(sh, before, *enc)
	sh.mu.Unlock()
	if p != nil {
		walBufPool.Put(enc)
		if oversized {
			p.fail(p.log.flush())
		}
	}
	if late {
		d.emit = true
		events()
	}
	for i := 0; d.emit && i < n; i++ {
		d.events[i].Ordinal = before + uint64(i)
	}
	sh.publish(d)
}

// publish folds an append batch's delta into the shard's rollup hierarchy
// and fans the round's events out to the change feed. Ordering carries
// the cache-consistency invariant: the generation counters must only
// become visible once the state they count is readable, otherwise a
// response cache could store a result computed without this append under
// a generation that claims to include it. So publish runs after the shard
// lock is released (shard records land first), each rollup bumps its own
// counter after folding its aggregates (rollup.apply), and the global
// counter — which vouches for every level — bumps last. A round with
// events bumps it inside the feed publish (one step with the feed's own
// generation bookkeeping, so a subscriber resuming mid-round never sees
// the two disagree), stamped on events that therefore describe state the
// query surface already serves.
func (sh *shard) publish(d *rollupDelta) {
	sh.rp.apply(d)
	sh.rg.apply(d)
	sh.metrics.appendBatches.Inc()
	sh.metrics.appendRecords.Add(d.records)
	if len(d.events) > 0 {
		sh.feed.publish(d.events, d.records)
	} else {
		sh.storeGen.Add(d.records)
	}
}

func newShard(id market.SpotID, dicts *probeDicts) *shard {
	return &shard{
		id:                 id,
		key:                id.String(),
		dicts:              dicts,
		probesOrdered:      true,
		spikesOrdered:      true,
		crossingsOrdered:   true,
		pricesOrdered:      true,
		revocationsOrdered: true,
		bidSpreadsOrdered:  true,
		outagesOrdered:     true,
	}
}

// appendProbes logs a batch of probes in one append round: one lock
// acquisition, one rollup fold and one feed publish amortized across the
// batch (bulk loads, the monitor tick flush; a single probe is a
// one-element batch).
func (sh *shard) appendProbes(rs []ProbeRecord) {
	var d rollupDelta
	sh.appendRound(len(rs), &d,
		func() {
			cp := append([]ProbeRecord(nil), rs...)
			d.events = make([]Event, 0, len(cp))
			for i := range cp {
				cp[i].At = canonical(cp[i].At)
				d.events = append(d.events, Event{Kind: EventProbe, Market: sh.id, At: cp[i].At, Probe: &cp[i]})
			}
		},
		func(b []byte) []byte {
			for i := range rs {
				b = appendProbeFrame(b, rs[i])
			}
			return b
		},
		func() {
			for i := range rs {
				sh.appendProbeLocked(&rs[i], &d)
			}
		})
}

func (sh *shard) appendProbeLocked(r *ProbeRecord, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	at := stamp(r.At)
	sh.probesOrdered = sh.probesOrdered && follows(sh.probes.at, at)
	sh.probes.push(r, at, sh.dicts)
	sh.agg.probeCount++
	sh.agg.probeCost += r.Cost
	d.probeCount++
	d.probeCost += r.Cost

	ki, ok := kindIndex(r.Kind)
	if !ok {
		return
	}
	ka, kd := &sh.agg.byKind[ki], &d.byKind[ki]
	ka.probes++
	kd.probes++
	if r.Rejected {
		ka.rejected++
		kd.rejected++
	}
	switch {
	case r.Rejected && sh.openOutage[ki] == 0:
		sh.outagesOrdered = sh.outagesOrdered && follows(sh.outages.start, at)
		sh.outages.push(r.Kind, at)
		sh.openOutage[ki] = sh.outages.n()
		start := stampTime(at)
		ka.outages++
		ka.openOutageStart = start
		kd.outages++
		kd.openOutage(start)
		if d.emit {
			cp := sh.outages.get(sh.outages.n()-1, sh.id)
			d.events = append(d.events, Event{Kind: EventOutageOpen, Market: r.Market, At: start, Outage: &cp})
		}
	case !r.Rejected && sh.openOutage[ki] != 0:
		oi := sh.openOutage[ki] - 1
		sh.outages.end[oi] = at
		start, end := stampTime(sh.outages.start[oi]), stampTime(at)
		ka.closedOutageDur += end.Sub(start)
		ka.openOutageStart = time.Time{}
		sh.openOutage[ki] = 0
		kd.closeOutage(start, end.Sub(start))
		if d.emit {
			cp := sh.outages.get(oi, sh.id)
			d.events = append(d.events, Event{Kind: EventOutageClose, Market: r.Market, At: end, Outage: &cp})
		}
	}
}

// appendSpikes logs a batch of spike events in one append round.
func (sh *shard) appendSpikes(es []SpikeEvent) {
	var d rollupDelta
	sh.appendRound(len(es), &d,
		func() {
			cp := append([]SpikeEvent(nil), es...)
			d.events = make([]Event, 0, len(cp))
			for i := range cp {
				cp[i].At = canonical(cp[i].At)
				d.events = append(d.events, Event{Kind: EventSpike, Market: sh.id, At: cp[i].At, Spike: &cp[i]})
			}
		},
		func(b []byte) []byte {
			for i := range es {
				b = appendSpikeFrame(b, es[i])
			}
			return b
		},
		func() {
			for i := range es {
				sh.appendSpikeLocked(&es[i], &d)
			}
		})
}

func (sh *shard) appendSpikeLocked(e *SpikeEvent, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	d.spikes++
	at := stamp(e.At)
	sh.spikesOrdered = sh.spikesOrdered && follows(sh.spikes.at, at)
	sh.spikes.push(e, at)
	sh.agg.spikes++
	if e.Ratio >= 1 {
		sh.crossingsOrdered = sh.crossingsOrdered && follows(sh.crossings.at, at)
		sh.crossings.at = appendRow(sh.crossings.at, at)
		sh.crossings.ratio = appendRow(sh.crossings.ratio, e.Ratio)
		sh.agg.spikesAboveOD++
		d.spikesAboveOD++
		if e.Ratio > d.maxCrossRatio {
			d.maxCrossRatio = e.Ratio
		}
	}
}

// appendBidSpreads logs a batch of intrinsic-price search results in one
// append round.
func (sh *shard) appendBidSpreads(rs []BidSpreadRecord) {
	var d rollupDelta
	sh.appendRound(len(rs), &d,
		func() {
			cp := append([]BidSpreadRecord(nil), rs...)
			d.events = make([]Event, 0, len(cp))
			for i := range cp {
				cp[i].At = canonical(cp[i].At)
				d.events = append(d.events, Event{Kind: EventBidSpread, Market: sh.id, At: cp[i].At, BidSpread: &cp[i]})
			}
		},
		func(b []byte) []byte {
			for i := range rs {
				b = appendBidSpreadFrame(b, rs[i])
			}
			return b
		},
		func() {
			for i := range rs {
				sh.appendBidSpreadLocked(&rs[i], &d)
			}
		})
}

func (sh *shard) appendBidSpreadLocked(r *BidSpreadRecord, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	at := stamp(r.At)
	sh.bidSpreadsOrdered = sh.bidSpreadsOrdered && follows(sh.bidSpreads.at, at)
	sh.bidSpreads.push(r, at)
}

// appendRevocations logs a batch of revocation watches in one append
// round.
func (sh *shard) appendRevocations(rs []RevocationRecord) {
	var d rollupDelta
	sh.appendRound(len(rs), &d,
		func() {
			cp := append([]RevocationRecord(nil), rs...)
			d.events = make([]Event, 0, len(cp))
			for i := range cp {
				cp[i].At = canonical(cp[i].At)
				d.events = append(d.events, Event{Kind: EventRevocation, Market: sh.id, At: cp[i].At, Revocation: &cp[i]})
			}
		},
		func(b []byte) []byte {
			for i := range rs {
				b = appendRevocationFrame(b, rs[i])
			}
			return b
		},
		func() {
			for i := range rs {
				sh.appendRevocationLocked(&rs[i], &d)
			}
		})
}

func (sh *shard) appendRevocationLocked(r *RevocationRecord, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	at := stamp(r.At)
	sh.revocationsOrdered = sh.revocationsOrdered && follows(sh.revocations.at, at)
	sh.revocations.push(r, at)
}

// appendPrices logs a price series in one append round (watched markets
// carry the densest series in a study).
func (sh *shard) appendPrices(ps []PricePoint) {
	var d rollupDelta
	sh.appendRound(len(ps), &d,
		func() {
			cp := append([]PricePoint(nil), ps...)
			d.events = make([]Event, 0, len(cp))
			for i := range cp {
				cp[i].At = canonical(cp[i].At)
				d.events = append(d.events, Event{Kind: EventPrice, Market: sh.id, At: cp[i].At, Price: &cp[i]})
			}
		},
		func(b []byte) []byte {
			for i := range ps {
				b = appendPriceFrame(b, ps[i])
			}
			return b
		},
		func() {
			for i := range ps {
				sh.appendPriceLocked(&ps[i], &d)
			}
		})
}

func (sh *shard) appendPriceLocked(p *PricePoint, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	d.price(p.Price)
	at := stamp(p.At)
	sh.pricesOrdered = sh.pricesOrdered && follows(sh.prices.at, at)
	sh.prices.push(p, at)
	sh.agg.priceCount++
	sh.agg.priceSum += p.Price
	if sh.agg.priceCount == 1 || p.Price < sh.agg.priceMin {
		sh.agg.priceMin = p.Price
	}
	if sh.agg.priceCount == 1 || p.Price > sh.agg.priceMax {
		sh.agg.priceMax = p.Price
	}
}

// shardCapture is one shard's full record state cut under a single lock
// hold — the per-shard consistent cut behind snapshots and WriteJSON: no
// append can land in some of a market's record streams and not others.
// The append-only column families are captured zero-copy: the capture
// holds the column slice headers as of the cut, and later appends only
// write past the captured lengths (or into fresh backing arrays). Only
// the outage columns — whose end timestamps are rewritten when an outage
// closes — are deep-copied.
type shardCapture struct {
	id    market.SpotID
	dicts *probeDicts

	// gen is the shard's record count at the cut; a snapshot's index pins
	// it, and replay skips the log frames it already counts.
	gen uint64

	probes      probeCols
	spikes      spikeCols
	bidSpreads  bidSpreadCols
	revocations revocationCols
	prices      priceCols
	outages     outageCols

	probesOrdered      bool
	spikesOrdered      bool
	bidSpreadsOrdered  bool
	revocationsOrdered bool
	pricesOrdered      bool
	outagesOrdered     bool
}

// capture cuts every record stream of the shard atomically.
func (sh *shard) capture() shardCapture {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return shardCapture{
		id:                 sh.id,
		dicts:              sh.dicts,
		gen:                sh.gen.Load(),
		probes:             sh.probes,
		spikes:             sh.spikes,
		bidSpreads:         sh.bidSpreads,
		revocations:        sh.revocations,
		prices:             sh.prices,
		outages:            sh.outages.clone(),
		probesOrdered:      sh.probesOrdered,
		spikesOrdered:      sh.spikesOrdered,
		bidSpreadsOrdered:  sh.bidSpreadsOrdered,
		revocationsOrdered: sh.revocationsOrdered,
		pricesOrdered:      sh.pricesOrdered,
		outagesOrdered:     sh.outagesOrdered,
	}
}

func (sh *shard) spikesIn(dst []SpikeEvent, from, to time.Time) []SpikeEvent {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.spikes.window(dst, sh.id, sh.spikesOrdered, from, to)
}

func (sh *shard) pricesIn(dst []PricePoint, from, to time.Time) []PricePoint {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.prices.window(dst, sh.pricesOrdered, from, to)
}

func (sh *shard) probesIn(dst []ProbeRecord, from, to time.Time) []ProbeRecord {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.probes.window(dst, sh.id, sh.dicts, sh.probesOrdered, from, to)
}

func (sh *shard) revocationsIn(dst []RevocationRecord, from, to time.Time) []RevocationRecord {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.revocations.window(dst, sh.id, sh.revocationsOrdered, from, to)
}

// The windowed folds below run under a shard lock the caller holds: the
// public per-market reads take it for one fold, a scope scan (scan.go)
// once for every fold its visitor asks of the market.

// priceStatsLocked folds min/mean/max over the price points inside
// [from, to] without materializing anything (priceCols.stats).
func (sh *shard) priceStatsLocked(from, to time.Time) PriceWindowStats {
	return sh.prices.stats(sh.pricesOrdered, from, to)
}

// crossingStatsLocked counts the on-demand price crossings inside
// [from, to] and their largest spike ratio, using the incremental
// crossings index.
func (sh *shard) crossingStatsLocked(from, to time.Time) CrossingStats {
	f, t := stamp(from), stamp(to)
	c := &sh.crossings
	lo, hi := bounds(c.at, sh.crossingsOrdered, f, t)
	var st CrossingStats
	for i := lo; i < hi; i++ {
		if f <= c.at[i] && c.at[i] <= t {
			st.Crossings++
			st.MaxRatio = max(st.MaxRatio, c.ratio[i])
		}
	}
	return st
}

// revocationStatsLocked counts the revocation watches that landed inside
// [from, to] and sums how long their instances were held.
func (sh *shard) revocationStatsLocked(from, to time.Time) (watches int, held time.Duration) {
	f, t := stamp(from), stamp(to)
	c := &sh.revocations
	lo, hi := bounds(c.at, sh.revocationsOrdered, f, t)
	for i := lo; i < hi; i++ {
		if f <= c.at[i] && c.at[i] <= t {
			watches++
			held += c.held[i]
		}
	}
	return watches, held
}

// outageOverlapLocked sums how much of [from, to] the shard's detected
// outages of one kind cover — an open one up to to — without copying the
// interval list.
func (sh *shard) outageOverlapLocked(kind ProbeKind, from, to time.Time) time.Duration {
	f, t := stamp(from), stamp(to)
	c := &sh.outages
	total := time.Duration(0)
	for i, k := range c.kind {
		start, end := max(c.start[i], f), c.end[i]
		if end == openEnd || end > t {
			end = t
		}
		if k != kind || end <= start {
			continue
		}
		if d := end - start; d > 0 {
			total += time.Duration(d)
		} else { // wrapped past 292 years: saturate as time.Time.Sub does
			total += math.MaxInt64
		}
	}
	return total
}

// Timestamp accessors shared by the window helpers.
func probeAt(r ProbeRecord) time.Time           { return r.At }
func spikeAt(e SpikeEvent) time.Time            { return e.At }
func priceAt(p PricePoint) time.Time            { return p.At }
func revocationAt(r RevocationRecord) time.Time { return r.At }
func bidSpreadAt(r BidSpreadRecord) time.Time   { return r.At }
func outageAt(o OutageRecord) time.Time         { return o.Start }
