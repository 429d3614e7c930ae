package store

import (
	"slices"
	"sort"
	"time"

	"spotlight/internal/market"
)

// Column-oriented record storage. Each record family keeps its fields in
// parallel slices ("struct of arrays") instead of a slice of record
// structs, so the windowed folds behind the query surface — price stats,
// spike windows, crossing counts, outage overlap — scan only the columns
// they read, contiguously, instead of striding over whole records. The
// layout also lets snapshot encode/decode stream record-at-a-time without
// ever materializing a []Record: encoders iterate indices and build one
// stack-allocated record per frame.
//
// Columns are append-only: a committed index is never rewritten (the one
// exception, outage closing, lives in outageCols and is documented
// there). That invariant is what makes zero-copy captures safe: a capture
// copies the column struct (slice headers) under the shard lock, and
// concurrent appends only ever touch indexes at or past the captured
// length — or a freshly reallocated backing array.
//
// The market of every record in a shard's columns is the shard's own ID
// (append paths route records by Market, and the WAL decoder rejects
// mismatches), so the Market field is not stored per record: accessors
// take the owning ID and stamp it back in.

// timeWindow returns the half-open index range [lo, hi) of the timestamps
// in at that fall inside [from, to], assuming at is non-decreasing.
func timeWindow(at []time.Time, from, to time.Time) (int, int) {
	lo := sort.Search(len(at), func(i int) bool { return !at[i].Before(from) })
	hi := sort.Search(len(at), func(i int) bool { return at[i].After(to) })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// inWindow reports whether t falls inside the inclusive window [from, to].
func inWindow(t, from, to time.Time) bool {
	return !t.Before(from) && !t.After(to)
}

// grown returns dst with room for n more elements. An empty dst gets
// exactly n (windowed reads know their result size from the
// binary-searched bounds, column reservation from the frame pre-count); a
// dst already holding other shards' results grows geometrically, so
// accumulating one result across k shards copies O(N), not O(N·k).
func grown[T any](dst []T, n int) []T {
	switch {
	case cap(dst)-len(dst) >= n:
		return dst
	case len(dst) == 0:
		return make([]T, 0, n)
	}
	return slices.Grow(dst, n)
}

// probeCols is the probe log in columnar form.
type probeCols struct {
	at            []time.Time
	kind          []ProbeKind
	trigger       []Trigger
	triggerMarket []market.SpotID
	sourceKind    []ProbeKind
	spikeRatio    []float64
	priceRatio    []float64
	rejected      []bool
	code          []string
	bid           []float64
	cost          []float64
}

func (c *probeCols) n() int { return len(c.at) }

func (c *probeCols) push(r *ProbeRecord) {
	c.at = append(c.at, r.At)
	c.kind = append(c.kind, r.Kind)
	c.trigger = append(c.trigger, r.Trigger)
	c.triggerMarket = append(c.triggerMarket, r.TriggerMarket)
	c.sourceKind = append(c.sourceKind, r.SourceKind)
	c.spikeRatio = append(c.spikeRatio, r.SpikeRatio)
	c.priceRatio = append(c.priceRatio, r.PriceRatio)
	c.rejected = append(c.rejected, r.Rejected)
	c.code = append(c.code, r.Code)
	c.bid = append(c.bid, r.Bid)
	c.cost = append(c.cost, r.Cost)
}

// reserve grows every column for n more records in one exact allocation
// each — recovery counts a shard's frames before decoding them, so the
// hot decode loop never pays append's doubling growth (or its zeroing).
func (c *probeCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.kind = grown(c.kind, n)
	c.trigger = grown(c.trigger, n)
	c.triggerMarket = grown(c.triggerMarket, n)
	c.sourceKind = grown(c.sourceKind, n)
	c.spikeRatio = grown(c.spikeRatio, n)
	c.priceRatio = grown(c.priceRatio, n)
	c.rejected = grown(c.rejected, n)
	c.code = grown(c.code, n)
	c.bid = grown(c.bid, n)
	c.cost = grown(c.cost, n)
}

func (c *probeCols) get(i int, id market.SpotID) ProbeRecord {
	return ProbeRecord{
		At:            c.at[i],
		Market:        id,
		Kind:          c.kind[i],
		Trigger:       c.trigger[i],
		TriggerMarket: c.triggerMarket[i],
		SourceKind:    c.sourceKind[i],
		SpikeRatio:    c.spikeRatio[i],
		PriceRatio:    c.priceRatio[i],
		Rejected:      c.rejected[i],
		Code:          c.code[i],
		Bid:           c.bid[i],
		Cost:          c.cost[i],
	}
}

// appendTo materializes rows [lo, hi) into dst.
func (c *probeCols) appendTo(dst []ProbeRecord, id market.SpotID, lo, hi int) []ProbeRecord {
	dst = grown(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.get(i, id))
	}
	return dst
}

// window materializes the rows inside [from, to] into dst; ordered
// columns locate the range by binary search, unordered ones scan the
// timestamp column.
func (c *probeCols) window(dst []ProbeRecord, id market.SpotID, ordered bool, from, to time.Time) []ProbeRecord {
	if ordered {
		lo, hi := timeWindow(c.at, from, to)
		return c.appendTo(dst, id, lo, hi)
	}
	for i, t := range c.at {
		if inWindow(t, from, to) {
			dst = append(dst, c.get(i, id))
		}
	}
	return dst
}

// spikeCols is the spike-event log in columnar form.
type spikeCols struct {
	at     []time.Time
	price  []float64
	ratio  []float64
	probed []bool
}

func (c *spikeCols) n() int { return len(c.at) }

func (c *spikeCols) push(e *SpikeEvent) {
	c.at = append(c.at, e.At)
	c.price = append(c.price, e.Price)
	c.ratio = append(c.ratio, e.Ratio)
	c.probed = append(c.probed, e.Probed)
}

func (c *spikeCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.price = grown(c.price, n)
	c.ratio = grown(c.ratio, n)
	c.probed = grown(c.probed, n)
}

func (c *spikeCols) get(i int, id market.SpotID) SpikeEvent {
	return SpikeEvent{At: c.at[i], Market: id, Price: c.price[i], Ratio: c.ratio[i], Probed: c.probed[i]}
}

func (c *spikeCols) appendTo(dst []SpikeEvent, id market.SpotID, lo, hi int) []SpikeEvent {
	dst = grown(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.get(i, id))
	}
	return dst
}

func (c *spikeCols) window(dst []SpikeEvent, id market.SpotID, ordered bool, from, to time.Time) []SpikeEvent {
	if ordered {
		lo, hi := timeWindow(c.at, from, to)
		return c.appendTo(dst, id, lo, hi)
	}
	for i, t := range c.at {
		if inWindow(t, from, to) {
			dst = append(dst, c.get(i, id))
		}
	}
	return dst
}

// bidSpreadCols is the intrinsic-price search log in columnar form.
type bidSpreadCols struct {
	at        []time.Time
	published []float64
	intrinsic []float64
	attempts  []int
}

func (c *bidSpreadCols) n() int { return len(c.at) }

func (c *bidSpreadCols) push(r *BidSpreadRecord) {
	c.at = append(c.at, r.At)
	c.published = append(c.published, r.Published)
	c.intrinsic = append(c.intrinsic, r.Intrinsic)
	c.attempts = append(c.attempts, r.Attempts)
}

func (c *bidSpreadCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.published = grown(c.published, n)
	c.intrinsic = grown(c.intrinsic, n)
	c.attempts = grown(c.attempts, n)
}

func (c *bidSpreadCols) get(i int, id market.SpotID) BidSpreadRecord {
	return BidSpreadRecord{At: c.at[i], Market: id, Published: c.published[i], Intrinsic: c.intrinsic[i], Attempts: c.attempts[i]}
}

func (c *bidSpreadCols) appendTo(dst []BidSpreadRecord, id market.SpotID, lo, hi int) []BidSpreadRecord {
	dst = grown(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.get(i, id))
	}
	return dst
}

func (c *bidSpreadCols) window(dst []BidSpreadRecord, id market.SpotID, ordered bool, from, to time.Time) []BidSpreadRecord {
	if ordered {
		lo, hi := timeWindow(c.at, from, to)
		return c.appendTo(dst, id, lo, hi)
	}
	for i, t := range c.at {
		if inWindow(t, from, to) {
			dst = append(dst, c.get(i, id))
		}
	}
	return dst
}

// revocationCols is the revocation-watch log in columnar form.
type revocationCols struct {
	at   []time.Time
	bid  []float64
	held []time.Duration
}

func (c *revocationCols) n() int { return len(c.at) }

func (c *revocationCols) push(r *RevocationRecord) {
	c.at = append(c.at, r.At)
	c.bid = append(c.bid, r.Bid)
	c.held = append(c.held, r.Held)
}

func (c *revocationCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.bid = grown(c.bid, n)
	c.held = grown(c.held, n)
}

func (c *revocationCols) get(i int, id market.SpotID) RevocationRecord {
	return RevocationRecord{At: c.at[i], Market: id, Bid: c.bid[i], Held: c.held[i]}
}

func (c *revocationCols) appendTo(dst []RevocationRecord, id market.SpotID, lo, hi int) []RevocationRecord {
	dst = grown(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.get(i, id))
	}
	return dst
}

func (c *revocationCols) window(dst []RevocationRecord, id market.SpotID, ordered bool, from, to time.Time) []RevocationRecord {
	if ordered {
		lo, hi := timeWindow(c.at, from, to)
		return c.appendTo(dst, id, lo, hi)
	}
	for i, t := range c.at {
		if inWindow(t, from, to) {
			dst = append(dst, c.get(i, id))
		}
	}
	return dst
}

// priceCols is the published-price series in columnar form: the densest
// series in a study, and the one whose windowed folds gain the most from
// scanning a bare float column.
type priceCols struct {
	at    []time.Time
	price []float64
}

func (c *priceCols) n() int { return len(c.at) }

func (c *priceCols) push(p *PricePoint) {
	c.at = append(c.at, p.At)
	c.price = append(c.price, p.Price)
}

func (c *priceCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.price = grown(c.price, n)
}

func (c *priceCols) get(i int) PricePoint {
	return PricePoint{At: c.at[i], Price: c.price[i]}
}

func (c *priceCols) appendTo(dst []PricePoint, lo, hi int) []PricePoint {
	dst = grown(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.get(i))
	}
	return dst
}

func (c *priceCols) window(dst []PricePoint, ordered bool, from, to time.Time) []PricePoint {
	if ordered {
		lo, hi := timeWindow(c.at, from, to)
		return c.appendTo(dst, lo, hi)
	}
	for i, t := range c.at {
		if inWindow(t, from, to) {
			dst = append(dst, c.get(i))
		}
	}
	return dst
}

// outageCols holds the derived outage intervals. Unlike every other
// family this one is not strictly append-only: closing an outage rewrites
// end[i] in place, so captures deep-copy these columns instead of
// aliasing them (outages are few — one per rejection streak).
type outageCols struct {
	kind  []ProbeKind
	start []time.Time
	end   []time.Time
}

func (c *outageCols) n() int { return len(c.start) }

func (c *outageCols) push(o OutageRecord) {
	c.kind = append(c.kind, o.Kind)
	c.start = append(c.start, o.Start)
	c.end = append(c.end, o.End)
}

func (c *outageCols) get(i int, id market.SpotID) OutageRecord {
	return OutageRecord{Market: id, Kind: c.kind[i], Start: c.start[i], End: c.end[i]}
}

func (c *outageCols) appendTo(dst []OutageRecord, id market.SpotID, lo, hi int) []OutageRecord {
	dst = grown(dst, hi-lo)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.get(i, id))
	}
	return dst
}

// clone deep-copies the columns (the capture path; see the type comment).
func (c *outageCols) clone() outageCols {
	return outageCols{
		kind:  append([]ProbeKind(nil), c.kind...),
		start: append([]time.Time(nil), c.start...),
		end:   append([]time.Time(nil), c.end...),
	}
}
