package store

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// probeKinds is the number of contract kinds a shard indexes separately
// (ProbeOnDemand and ProbeSpot).
const probeKinds = 2

// kindIndex maps a ProbeKind to its per-kind slot; records with an
// unknown kind are logged but excluded from per-kind indexes.
func kindIndex(k ProbeKind) (int, bool) {
	if k == ProbeOnDemand || k == ProbeSpot {
		return int(k) - 1, true
	}
	return 0, false
}

// shard holds every record of one spot market behind its own lock, so
// writes to different markets never contend and per-market queries never
// scan other markets' history.
//
// A shard holds only what was appended, one log per record family, and
// reads outages and crossings from its probes and spikes.
//
// Most markets are quiet — a day of prices and a handful of spikes or
// probes — so the per-market fixed cost, not the record bytes, sets an
// always-on store's memory: a shard names its market by its index in the
// store's market dictionary, and a record family other than prices — and
// a price log's sealed chunks — is a nil pointer until its first row.
type shard struct {
	mu sync.RWMutex

	// gen counts every record ever appended to this shard (probes, spikes,
	// bid spreads, revocations, prices). It is the per-shard invalidation
	// signal for response caches: any append that could change a query
	// result bumps the generation of exactly one shard, so a cache entry is
	// valid iff the generations of the shards in its scope are unchanged.
	// Atomic so readers never take the shard lock.
	gen atomic.Uint64

	// store is the owning store — its feed, log, metrics and global
	// generation take every append round — and rp and rg the shard's
	// (region, product) and region-level rollup entries: every append round
	// bumps rp's generation and folds its rollupDelta into rg. idx is the
	// market's index in store.dicts.markets (id). Wired once at creation,
	// immutable afterwards.
	store  *Store
	rp, rg *rollup
	idx    uint32

	// hadOutage marks the kinds that have had an outage; reads of another
	// kind walk no probe. It fits in idx's padding.
	hadOutage [probeKinds]bool

	// Each record family is one stamped log (see columns.go), prices a
	// tail and sealed chunks (prices.go), and captures alias the
	// append-only logs instead of copying them. Every shard holds a price
	// tail; the sealed chunks are allocated on the first seal, every other
	// family on its first row.
	prices      priceLog
	probes      *famLog[probeRow]
	spikes      *famLog[spikeRow]
	bidSpreads  *famLog[bidSpreadRow]
	revocations *famLog[revocationRow]

	// outages is nil until the first rejected probe of a kind: a market
	// that never had an outage reads none without walking its probes.
	outages *outageStarts
}

// outageStarts holds each kind's open outage start, noOutage while the
// kind is available.
type outageStarts [probeKinds]int64

// step is the outage rule for one probe of kind slot ki stamped at: a
// rejection of an available kind opens an outage at at, an acceptance of
// an unavailable kind closes the one open since start. moved reports that
// an outage opened (the probe was rejected) or closed.
func (o *outageStarts) step(ki int, rejected bool, at int64) (start int64, moved bool) {
	switch start = o[ki]; {
	case rejected && start == noOutage:
		o[ki] = at
		return at, true
	case !rejected && start != noOutage:
		o[ki] = noOutage
		return start, true
	}
	return start, false
}

// ensure returns the family *p, allocating it on its first row.
func ensure[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// id returns the shard's market: one atomic load from the dictionary.
func (sh *shard) id() market.SpotID { return sh.store.dicts.markets.at(sh.idx) }

// owner returns what turns the shard's rows back into records.
func (sh *shard) owner() owner { return owner{sh.id(), &sh.store.dicts} }

// walBufPool recycles the scratch buffers append rounds encode log frames
// into before taking the shard lock.
var walBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendRows is the one way records enter a shard: the batch rs lands as
// one append round — one lock acquisition, one rollup fold and one feed
// publish amortized across the batch (bulk loads, the monitor tick flush; a
// single record is a one-element batch). The round owns the ordering:
//
//  1. feed events copy the batch before the lock, only when somebody
//     subscribes (one atomic load otherwise);
//  2. the log frames are encoded outside the lock, so the lock-held part
//     of a durable append is a single buffer copy;
//  3. the records land under the shard lock and the frames join the log
//     inside the same hold, so log byte order is append order;
//  4. after the unlock an oversized log buffer drains without blocking the
//     shard, the record events get their ordinals (counted under the
//     lock), and publish folds the round into rollups, generation, feed.
//
// rs keeps time order within itself (batch entry points check it before
// they resolve the shard); under the lock its first stamp is held to the
// family's newest, and a round that goes back in time is refused whole: no
// row, log frame, rollup delta, feed event or generation (inOrder).
//
// The gate is read again under the lock: a subscriber registered since may
// have captured this shard for a snapshot (stream.go) already, so the round
// still reaches it as record events (its outage transitions do not).
func appendRows[R record](sh *shard, rs []R) error {
	n := len(rs)
	if n == 0 {
		return nil
	}
	var d rollupDelta
	feed, p, id := sh.store.feed, sh.store.persist, sh.id()
	if d.emit = feed.enabled(); d.emit {
		recordEvents(sh, rs, &d)
	}
	var enc *[]byte
	if p != nil {
		enc = walBufPool.Get().(*[]byte)
		b := (*enc)[:0]
		for i := range rs {
			b = encode(b, &rs[i], id)
		}
		*enc = b
	}
	sh.mu.Lock()
	if err := inOrder(sh.store, id, newest[R](sh), rs[:1]); err != nil {
		sh.mu.Unlock()
		if p != nil {
			walBufPool.Put(enc)
		}
		return err
	}
	for i := range rs {
		land(sh, &rs[i], &d)
	}
	// The round's n records are now the shard's newest.
	before := sh.gen.Load() - uint64(n)
	late := !d.emit && feed.enabled()
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
		recordEvents(sh, rs, &d)
	}
	for i := 0; d.emit && i < n; i++ {
		d.events[i].Ordinal = before + uint64(i)
	}
	sh.publish(&d)
	return nil
}

// inOrder checks that rs, records of market id, keep time order after a
// row stamped prev: a stamp equal to the one before it is allowed, an
// earlier one refuses the round, counted in s's metrics (ErrBackInTime).
func inOrder[R record](s *Store, id market.SpotID, prev int64, rs []R) error {
	for i := range rs {
		at, _ := fields(&rs[i])
		if a := stamp(*at); a >= prev {
			prev = a
			continue
		}
		s.metrics.appendRefused.Inc()
		return fmt.Errorf("%w: %v %T stamped %v, after %v", ErrBackInTime, id, rs[i], *at, stampTime(prev))
	}
	return nil
}

// newest returns the stamp of the newest row of R's family in sh;
// math.MinInt64, which no stamp precedes, when it has none.
func newest[R record](sh *shard) int64 {
	switch any((*R)(nil)).(type) {
	case *ProbeRecord:
		return value(sh.probes).last()
	case *SpikeEvent:
		return value(sh.spikes).last()
	case *BidSpreadRecord:
		return value(sh.bidSpreads).last()
	case *RevocationRecord:
		return value(sh.revocations).last()
	}
	return sh.prices.last()
}

// ErrBackInTime reports a record stamped before the newest row of its
// family in its market: the store takes every (market, family) series in
// time order only, and recovery and the follow stream fail on one.
var ErrBackInTime = errors.New("store: record goes back in time")

// publish folds an append batch's delta into the shard's rollup entries
// and fans the round's events out to the change feed. Ordering carries
// the cache-consistency invariant: the generation counters must only
// become visible once the state they count is readable, otherwise a
// response cache could store a result computed without this append under
// a generation that claims to include it. So publish runs after the shard
// lock is released (shard records land first), the region entry bumps its
// counter only after folding its aggregate (rollup.apply), and the global
// counter — which vouches for every level — bumps last. A round with
// events bumps it inside the feed publish (one step with the feed's own
// generation bookkeeping, so a subscriber resuming mid-round never sees
// the two disagree), stamped on events that therefore describe state the
// query surface already serves.
func (sh *shard) publish(d *rollupDelta) {
	sh.rp.gen.Add(d.records)
	sh.rg.apply(d)
	s := sh.store
	s.metrics.appendBatches.Inc()
	s.metrics.appendRecords.Add(d.records)
	if len(d.events) > 0 {
		s.feed.publish(d.events, d.records)
	} else {
		s.gen.Add(d.records)
	}
}

// The land methods put one record, stamped at, into its shard's logs and
// fold what the rollups read into d (see land).

func (r *ProbeRecord) land(sh *shard, at int64, d *rollupDelta) {
	d.probeCount++
	ps := ensure(&sh.probes)
	ps.push(at, probeRowOf(r, *ps, &sh.store.dicts))

	ki, ok := kindIndex(r.Kind)
	if !ok {
		return
	}
	kd := &d.byKind[ki]
	kd.probes++
	if r.Rejected {
		kd.rejected++
		if sh.outages == nil {
			sh.outages = &outageStarts{noOutage, noOutage}
		}
	} else if sh.outages == nil {
		return
	}
	start, moved := sh.outages.step(ki, r.Rejected, at)
	if !moved {
		return
	}
	o := OutageRecord{Kind: r.Kind, Start: stampTime(start)}
	ev := Event{Kind: EventOutageOpen, At: o.Start}
	if r.Rejected {
		kd.outages++
		kd.open.add(o.Start, 1)
		sh.hadOutage[ki] = true
	} else {
		o.End = stampTime(at)
		ev.Kind, ev.At = EventOutageClose, o.End
		kd.open.add(o.Start, -1)
		kd.closedOutageDur += o.End.Sub(o.Start)
	}
	if d.emit {
		cp := o
		cp.Market = sh.id()
		ev.Market, ev.Outage = cp.Market, &cp
		d.events = append(d.events, ev)
	}
}

func (e *SpikeEvent) land(sh *shard, at int64, d *rollupDelta) {
	d.spikes++
	ensure(&sh.spikes).push(at, spikeRow{e.Price, e.Ratio, e.Probed})
	if e.Ratio >= 1 {
		d.spikesAboveOD++
	}
}

func (r *BidSpreadRecord) land(sh *shard, at int64) {
	ensure(&sh.bidSpreads).push(at, bidSpreadRow{r.Published, r.Intrinsic, r.Attempts})
}

func (r *RevocationRecord) land(sh *shard, at int64) {
	ensure(&sh.revocations).push(at, revocationRow{r.Bid, r.Held})
}

func (p *PricePoint) land(sh *shard, at int64) {
	sh.prices.push(at, p.Price)
}

// shardCapture is one shard's full record state cut under a single lock
// hold — the per-shard consistent cut behind snapshots and dumps: no
// append can land in some of a market's record streams and not others.
// Every log is captured zero-copy: the capture holds the logs' slice
// headers as of the cut, and later appends only write past the captured
// lengths (or into fresh backing arrays). Outages are read from the
// captured probes. A family the shard never held captures empty.
type shardCapture struct {
	owner

	// gen is the shard's record count at the cut; a snapshot's index pins
	// it, and replay skips the log frames it already counts.
	gen uint64

	probes      famLog[probeRow]
	spikes      famLog[spikeRow]
	bidSpreads  famLog[bidSpreadRow]
	revocations famLog[revocationRow]
	prices      priceSeries
}

// value returns *p, or the zero family when the shard never held one.
func value[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

// capture cuts every record stream of the shard atomically.
func (sh *shard) capture() shardCapture {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.captureLocked()
}

// captureLocked is capture under a shard lock the caller holds.
func (sh *shard) captureLocked() shardCapture {
	return shardCapture{
		owner:       sh.owner(),
		gen:         sh.gen.Load(),
		probes:      value(sh.probes),
		spikes:      value(sh.spikes),
		bidSpreads:  value(sh.bidSpreads),
		revocations: value(sh.revocations),
		prices:      sh.prices.series(),
	}
}

// The windowed reads and folds below take a window as its two stamps
// [f, t], converted once at the exported boundary. The folds run under a
// shard lock the caller holds: the public per-market reads take it for one
// fold, a scope scan (scan.go) once for every fold its visitor asks of the
// market.

func (sh *shard) spikesIn(dst []SpikeEvent, f, t int64) []SpikeEvent {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return rows(dst, value(sh.spikes).span(f, t), sh.owner(), spikeOf)
}

func (sh *shard) pricesIn(dst []PricePoint, f, t int64) []PricePoint {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ps := sh.prices.series()
	return ps.collect(dst, f, t)
}

func (sh *shard) probesIn(dst []ProbeRecord, f, t int64) []ProbeRecord {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return rows(dst, value(sh.probes).span(f, t), sh.owner(), probeOf)
}

func (sh *shard) revocationsIn(dst []RevocationRecord, f, t int64) []RevocationRecord {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return rows(dst, value(sh.revocations).span(f, t), sh.owner(), revocationOf)
}

// priceStatsLocked folds min/mean/max over the price points inside
// [f, t] without materializing anything (priceSeries.stats).
func (sh *shard) priceStatsLocked(f, t int64) PriceWindowStats {
	ps := sh.prices.series()
	return ps.stats(f, t)
}

// crossingStatsLocked counts the on-demand price crossings — the spikes
// with Ratio >= 1 — inside [f, t] and their largest ratio, walking the
// binary-searched span of the spike log.
func (sh *shard) crossingStatsLocked(f, t int64) CrossingStats {
	var st CrossingStats
	for _, e := range value(sh.spikes).span(f, t) {
		if e.row.ratio >= 1 {
			st.Crossings++
			st.MaxRatio = max(st.MaxRatio, e.row.ratio)
		}
	}
	return st
}

// revocationStatsLocked counts the revocation watches that landed inside
// [f, t] and sums how long their instances were held.
func (sh *shard) revocationStatsLocked(f, t int64) (watches int, held time.Duration) {
	for _, e := range value(sh.revocations).span(f, t) {
		watches++
		held += e.row.held
	}
	return watches, held
}

// walkOutages runs the probes of l through step in order from the open
// starts open, and hands visit each outage of kind slot ki as it opens
// (end is noOutage) and again as it closes at end. It returns each kind's
// open start after the last probe.
func walkOutages(l famLog[probeRow], shapes []probeShape, open outageStarts, visit func(ki int, start, end int64)) outageStarts {
	for _, e := range l {
		s := &shapes[e.row.shape]
		ki, ok := kindIndex(s.kind)
		if !ok {
			continue
		}
		if start, moved := open.step(ki, s.rejected, e.at); moved {
			end := e.at
			if s.rejected {
				end = noOutage
			}
			visit(ki, start, end)
		}
	}
	return open
}

// outagesIn is walkOutages over the shard's probes, which hold an outage,
// for a read of [f, t], walked only over the probes stamped inside: a kind
// is in an outage where the walk starts iff its last probe before was
// rejected, and minStamp stands for that outage's start, which is before
// f; what opens after t starts past the window, and what closes after t is
// still open at t.
func (sh *shard) outagesIn(f, t int64, visit func(ki int, start, end int64)) outageStarts {
	l, open := *sh.probes, outageStarts{noOutage, noOutage}
	shapes := *sh.store.dicts.shapes.vals.Load()
	i := l.after(f - 1)
	var seen [probeKinds]bool
	for k, n := i-1, 0; k >= 0 && n < probeKinds; k-- {
		s := &shapes[l[k].row.shape]
		if ki, ok := kindIndex(s.kind); ok && !seen[ki] {
			seen[ki], n = true, n+1
			if s.rejected {
				open[ki] = minStamp
			}
		}
	}
	return walkOutages(l[i:max(i, l.after(t))], shapes, open, visit)
}

// outageRecords appends the outages of the probe log l to dst in the order
// they opened, only those of kind slot only — every kind's when only is
// negative; an open one keeps a zero End.
func outageRecords(dst []OutageRecord, l famLog[probeRow], o owner, only int) []OutageRecord {
	if len(l) == 0 {
		return dst
	}
	var at [probeKinds]int // dst index of each kind's open outage
	walkOutages(l, *o.dicts.shapes.vals.Load(), outageStarts{noOutage, noOutage}, func(ki int, start, end int64) {
		switch {
		case only >= 0 && ki != only:
		case end == noOutage:
			at[ki] = len(dst)
			// Slot ki holds kind ki+1 (kindIndex).
			dst = append(dst, OutageRecord{Market: o.id, Kind: ProbeKind(ki + 1), Start: stampTime(start)})
		default:
			dst[at[ki]].End = stampTime(end)
		}
	})
	return dst
}

// outageOverlapLocked sums how much of [f, t] the shard's detected
// outages of one kind cover — an open one up to t — without building the
// interval list. Each overlap and their sum saturate as time.Time.Sub
// does: a window wider than 292 years reads the longest Duration, never a
// wrapped negative one.
func (sh *shard) outageOverlapLocked(kind ProbeKind, f, t int64) time.Duration {
	want, ok := kindIndex(kind)
	if !ok || !sh.hadOutage[want] {
		return 0
	}
	var total uint64 // a sum of two Durations fits
	add := func(start, end int64) {
		start = max(start, f)
		if end == noOutage || end > t {
			end = t
		}
		if end <= start {
			return
		}
		d := uint64(math.MaxInt64) // end - start wrapped past 292 years
		if end-start > 0 {
			d = uint64(end - start)
		}
		total = min(total+d, math.MaxInt64)
	}
	open := sh.outagesIn(f, t, func(ki int, start, end int64) {
		if ki == want && end != noOutage {
			add(start, end)
		}
	})
	if open[want] != noOutage {
		add(open[want], noOutage)
	}
	return time.Duration(total)
}

// Timestamp accessors shared by the window helpers.
func probeAt(r ProbeRecord) time.Time   { return r.At }
func spikeAt(e SpikeEvent) time.Time    { return e.At }
func outageAt(o OutageRecord) time.Time { return o.Start }
