package store

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// Probes are the one family stored as rows (probeRows): no fold reads a
// probe field on its own, so columns would buy no scan and cost eleven
// slice headers and growth steps per shard.
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
//
// No column holds a pointer: its elements are numbers, bools or structs of
// numbers, so the collector never scans a record
// (TestColumnsArePointerFree). A probe row holds its TriggerMarket and its
// shape (kind, trigger, source kind, rejection and Code) as uint32 indices
// into the store's append-only dictionaries (probeDicts).
// An index means something only inside one process's store: accessors
// turn it back into the value before a record leaves the store, so the
// log, snapshots, the follow stream and every export carry the values,
// and no index is ever persisted or compared across stores.
//
// A full column grows by a quarter of its length plus one row, rounded up
// to the allocator's size class (appendRow), not by append's doubling, so
// a resident history carries at most a quarter of itself in slack.
// Recovery, which counts its frames first, reserves columns exactly.

// Stamps. Every time column holds int64 Unix nanoseconds — 8 bytes and no
// *Location for the collector to scan — converted once by stamp on the way
// in and materialized by stampTime on the way out, so a record reads back
// as the same UTC instant whether it was appended live, recovered from a
// data dir or loaded by ReadJSON. Instants outside the int64 range
// (1677-09-21 to 2262-04-11, the zero time.Time among them) saturate to
// its ends. The lowest int64 is held back: it is openEnd, the end of an
// outage that has not closed.
const (
	openEnd  = math.MinInt64
	minStamp = math.MinInt64 + 1
	maxStamp = math.MaxInt64
)

var minStampTime, maxStampTime = time.Unix(0, minStamp), time.Unix(0, maxStamp)

func stamp(t time.Time) int64 {
	switch s := t.Unix(); {
	case -9e9 < s && s < 9e9: // well inside the range: no overflow
		return s*1e9 + int64(t.Nanosecond())
	case t.Before(minStampTime):
		return minStamp
	case t.After(maxStampTime):
		return maxStamp
	}
	return t.UnixNano()
}

func stampTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// canonical is the instant the store hands back for t.
func canonical(t time.Time) time.Time { return stampTime(stamp(t)) }

// follows reports whether appending s keeps the stamp column non-decreasing.
func follows(at []int64, s int64) bool { return len(at) == 0 || at[len(at)-1] <= s }

// after returns the first index of the non-decreasing column at whose
// stamp is past s (len(at) when none).
func after(at []int64, s int64) int {
	lo, hi := 0, len(at)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if at[m] <= s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// bounds returns the index range [lo, hi) a windowed read of [from, to]
// visits: two binary searches on an ordered column, the whole of an
// unordered one (whose rows the read then filters). from is a stamp, so
// from-1 cannot overflow.
func bounds(at []int64, ordered bool, from, to int64) (int, int) {
	if !ordered {
		return 0, len(at)
	}
	lo := after(at, from-1)
	return lo, lo + after(at[lo:], to)
}

// collect appends row(i) to dst for every row whose stamp falls inside
// [from, to].
func collect[T any](dst []T, at []int64, ordered bool, from, to time.Time, row func(int) T) []T {
	f, t := stamp(from), stamp(to)
	lo, hi := bounds(at, ordered, f, t)
	if ordered {
		dst = grown(dst, hi-lo)
	}
	for i := lo; i < hi; i++ {
		if f <= at[i] && at[i] <= t {
			dst = append(dst, row(i))
		}
	}
	return dst
}

// rows appends row(i) for every i in [0, n) to dst.
func rows[T any](dst []T, n int, row func(int) T) []T {
	dst = grown(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, row(i))
	}
	return dst
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

// appendRow appends v to a column. A full column moves to a fresh array
// of len + len/4 + 1 rows, which slices.Grow on a nil slice rounds up to
// the allocator's size class.
func appendRow[T any](col []T, v T) []T {
	if n := len(col); n == cap(col) {
		col = append(slices.Grow([]T(nil), n+n/4+1), col...)
	}
	return append(col, v)
}

// dict is an append-only intern table: each distinct value gets the next
// uint32 index for the life of the store, so a row holds 4 bytes and no
// pointer where the value would hold several of both. Shards appending in
// parallel share one dict, so only an insert excludes them: ids maps a
// value to its index under mu's read lock, and vals holds the values by
// index, published whole after every insert and read without a lock. An
// insert publishes vals before it stores the index in ids, so no index is
// handed out before at can read it.
type dict[T comparable] struct {
	mu   sync.RWMutex
	ids  map[T]uint32
	vals atomic.Pointer[[]T]
}

// noPrev is the previous index id is given for a shard's first row.
const noPrev = math.MaxUint32

func (d *dict[T]) at(i uint32) T { return (*d.vals.Load())[i] }

// find returns v's index without adding it: a read of a value never
// added leaves the table as it was.
func (d *dict[T]) find(v T) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	i, ok := d.ids[v]
	return i, ok
}

// id returns v's index, adding v on first sight. prev is the index the
// shard's previous row holds (noPrev for none): consecutive rows often
// repeat a value (a market's probes are mostly triggered by the market
// itself), so it is tried before the table.
func (d *dict[T]) id(v T, prev uint32) uint32 {
	if prev != noPrev && d.at(prev) == v {
		return prev
	}
	if i, ok := d.find(v); ok {
		return i
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if i, ok := d.ids[v]; ok {
		return i
	}
	if d.ids == nil {
		d.ids = make(map[T]uint32)
	}
	var vals []T
	if p := d.vals.Load(); p != nil {
		vals = *p
	}
	i := uint32(len(vals))
	vals = appendRow(vals, v)
	d.vals.Store(&vals)
	d.ids[v] = i
	return i
}

// probeDicts are one store's dictionaries for the probe fields a row holds
// as an index. markets is also the store's market index: a shard is named
// by its market's index there (Store.shards).
type probeDicts struct {
	markets dict[market.SpotID]
	shapes  dict[probeShape]
}

// probeShape is what a probe says besides its instant, its markets and its
// numbers. A study's probes take a few dozen distinct shapes, so a row
// holds one index into probeDicts.shapes instead; a kind or trigger
// outside its enum is just another entry. A shape holds no float: NaN !=
// NaN would add an entry per row, and -0 == +0 would read a -0 back as +0.
type probeShape struct {
	kind, sourceKind ProbeKind
	trigger          Trigger
	rejected         bool
	code             string
}

// probeRow is one probe, 48 bytes and no pointer: its stamp, its four
// numbers, and indices into the store's probeDicts for its shape and its
// trigger market.
type probeRow struct {
	at                                int64
	spikeRatio, priceRatio, bid, cost float64
	shape, triggerMarket              uint32
}

// probeRows is the probe log, one row per probe (see the header comment).
type probeRows []probeRow

func (c *probeRows) push(r *ProbeRecord, at int64, d *probeDicts) {
	prev := probeRow{shape: noPrev, triggerMarket: noPrev}
	if n := len(*c); n > 0 {
		prev = (*c)[n-1]
	}
	shape := d.shapes.id(probeShape{r.Kind, r.SourceKind, r.Trigger, r.Rejected, r.Code}, prev.shape)
	trigger := d.markets.id(r.TriggerMarket, prev.triggerMarket)
	*c = appendRow(*c, probeRow{at, r.SpikeRatio, r.PriceRatio, r.Bid, r.Cost, shape, trigger})
}

// reserve grows the rows for n more probes in one exact allocation —
// recovery counts a shard's frames before decoding them, so the hot decode
// loop never pays appendRow's step growth (or its copying).
func (c *probeRows) reserve(n int) { *c = grown(*c, n) }

func (c probeRows) get(i int, id market.SpotID, d *probeDicts) ProbeRecord {
	r, s := c[i], d.shapes.at(c[i].shape)
	return ProbeRecord{
		At: stampTime(r.at), Market: id, Kind: s.kind, Trigger: s.trigger,
		TriggerMarket: d.markets.at(r.triggerMarket), SourceKind: s.sourceKind,
		SpikeRatio: r.spikeRatio, PriceRatio: r.priceRatio,
		Rejected: s.rejected, Code: s.code, Bid: r.bid, Cost: r.cost,
	}
}

// appendTo materializes every row into dst.
func (c probeRows) appendTo(dst []ProbeRecord, id market.SpotID, d *probeDicts) []ProbeRecord {
	return rows(dst, len(c), func(i int) ProbeRecord { return c.get(i, id, d) })
}

// window materializes the rows inside [from, to] into dst, binary-searching
// the stamps of ordered rows and filtering every row of unordered ones.
func (c probeRows) window(dst []ProbeRecord, id market.SpotID, d *probeDicts, ordered bool, from, to time.Time) []ProbeRecord {
	f, t := stamp(from), stamp(to)
	lo, hi := 0, len(c)
	if ordered {
		lo = sort.Search(len(c), func(i int) bool { return c[i].at >= f })
		hi = max(lo, sort.Search(len(c), func(i int) bool { return c[i].at > t }))
		dst = grown(dst, hi-lo)
	}
	for i := lo; i < hi; i++ {
		if f <= c[i].at && c[i].at <= t {
			dst = append(dst, c.get(i, id, d))
		}
	}
	return dst
}

// spikeCols is the spike-event log in columnar form.
type spikeCols struct {
	at     []int64
	price  []float64
	ratio  []float64
	probed []bool
}

func (c *spikeCols) n() int { return len(c.at) }

func (c *spikeCols) push(e *SpikeEvent, at int64) {
	c.at = appendRow(c.at, at)
	c.price = appendRow(c.price, e.Price)
	c.ratio = appendRow(c.ratio, e.Ratio)
	c.probed = appendRow(c.probed, e.Probed)
}

func (c *spikeCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.price = grown(c.price, n)
	c.ratio = grown(c.ratio, n)
	c.probed = grown(c.probed, n)
}

func (c *spikeCols) get(i int, id market.SpotID) SpikeEvent {
	return SpikeEvent{At: stampTime(c.at[i]), Market: id, Price: c.price[i], Ratio: c.ratio[i], Probed: c.probed[i]}
}

func (c *spikeCols) appendTo(dst []SpikeEvent, id market.SpotID) []SpikeEvent {
	return rows(dst, c.n(), func(i int) SpikeEvent { return c.get(i, id) })
}

func (c *spikeCols) window(dst []SpikeEvent, id market.SpotID, ordered bool, from, to time.Time) []SpikeEvent {
	return collect(dst, c.at, ordered, from, to, func(i int) SpikeEvent { return c.get(i, id) })
}

// crossingCols is the incremental index of spikes with Ratio >= 1: when
// and how big, all a crossing fold reads.
type crossingCols struct {
	at    []int64
	ratio []float64
}

// bidSpreadCols is the intrinsic-price search log in columnar form.
type bidSpreadCols struct {
	at        []int64
	published []float64
	intrinsic []float64
	attempts  []int
}

func (c *bidSpreadCols) n() int { return len(c.at) }

func (c *bidSpreadCols) push(r *BidSpreadRecord, at int64) {
	c.at = appendRow(c.at, at)
	c.published = appendRow(c.published, r.Published)
	c.intrinsic = appendRow(c.intrinsic, r.Intrinsic)
	c.attempts = appendRow(c.attempts, r.Attempts)
}

func (c *bidSpreadCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.published = grown(c.published, n)
	c.intrinsic = grown(c.intrinsic, n)
	c.attempts = grown(c.attempts, n)
}

func (c *bidSpreadCols) get(i int, id market.SpotID) BidSpreadRecord {
	return BidSpreadRecord{At: stampTime(c.at[i]), Market: id, Published: c.published[i], Intrinsic: c.intrinsic[i], Attempts: c.attempts[i]}
}

func (c *bidSpreadCols) appendTo(dst []BidSpreadRecord, id market.SpotID) []BidSpreadRecord {
	return rows(dst, c.n(), func(i int) BidSpreadRecord { return c.get(i, id) })
}

// revocationCols is the revocation-watch log in columnar form.
type revocationCols struct {
	at   []int64
	bid  []float64
	held []time.Duration
}

func (c *revocationCols) n() int { return len(c.at) }

func (c *revocationCols) push(r *RevocationRecord, at int64) {
	c.at = appendRow(c.at, at)
	c.bid = appendRow(c.bid, r.Bid)
	c.held = appendRow(c.held, r.Held)
}

func (c *revocationCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.bid = grown(c.bid, n)
	c.held = grown(c.held, n)
}

func (c *revocationCols) get(i int, id market.SpotID) RevocationRecord {
	return RevocationRecord{At: stampTime(c.at[i]), Market: id, Bid: c.bid[i], Held: c.held[i]}
}

func (c *revocationCols) appendTo(dst []RevocationRecord, id market.SpotID) []RevocationRecord {
	return rows(dst, c.n(), func(i int) RevocationRecord { return c.get(i, id) })
}

func (c *revocationCols) window(dst []RevocationRecord, id market.SpotID, ordered bool, from, to time.Time) []RevocationRecord {
	return collect(dst, c.at, ordered, from, to, func(i int) RevocationRecord { return c.get(i, id) })
}

// chunkLen is how many consecutive prices one sealed chunk summarizes.
const chunkLen = 16

// priceChunk summarizes one sealed run of chunkLen prices: their sum,
// added left to right from +0, and their min and max under the window
// fold's strict first-wins comparison with NaN skipped (NaN when the whole
// run is). Seeded with a window's first price, the fold then folds a chunk
// in one step and lands on the bits it would reach point by point.
type priceChunk struct{ min, max, sum float64 }

func summarize(ps []float64) priceChunk {
	ch := priceChunk{min: math.NaN(), max: math.NaN()}
	for _, p := range ps {
		if p < ch.min || ch.min != ch.min {
			ch.min = p
		}
		if p > ch.max || ch.max != ch.max {
			ch.max = p
		}
		ch.sum += p
	}
	return ch
}

// priceCols is the published-price series in columnar form — the densest
// series in a study — plus, per full run of chunkLen prices, a sealed
// summary and the run's last stamp, appended as the run fills and never
// persisted (replay rebuilds them through the same push).
type priceCols struct {
	at     []int64
	price  []float64
	chunks []priceChunk // chunks[k] covers price[k*chunkLen : (k+1)*chunkLen]
	last   []int64      // last[k] is at[(k+1)*chunkLen-1]
}

func (c *priceCols) n() int { return len(c.at) }

func (c *priceCols) push(p *PricePoint, at int64) {
	c.at = appendRow(c.at, at)
	c.price = appendRow(c.price, p.Price)
	if n := len(c.price); n%chunkLen == 0 {
		c.chunks = appendRow(c.chunks, summarize(c.price[n-chunkLen:]))
		c.last = appendRow(c.last, at)
	}
}

func (c *priceCols) reserve(n int) {
	c.at = grown(c.at, n)
	c.price = grown(c.price, n)
	c.chunks = grown(c.chunks, n/chunkLen+1)
	c.last = grown(c.last, n/chunkLen+1)
}

// search is after on an ordered series, in two steps: the chunks' last
// stamps narrow it to one run of at most chunkLen prices, searched in turn
// — a few cache lines, where halving the whole column misses on most steps.
func (c *priceCols) search(s int64) int {
	lo := after(c.last, s) * chunkLen
	return lo + after(c.at[lo:min(lo+chunkLen, len(c.at))], s)
}

func (c *priceCols) get(i int) PricePoint {
	return PricePoint{At: stampTime(c.at[i]), Price: c.price[i]}
}

func (c *priceCols) appendTo(dst []PricePoint) []PricePoint {
	return rows(dst, c.n(), c.get)
}

func (c *priceCols) window(dst []PricePoint, ordered bool, from, to time.Time) []PricePoint {
	return collect(dst, c.at, ordered, from, to, c.get)
}

// priceFold accumulates a window's price stats in series order: min and
// max start at the window's first price and only a strictly smaller or
// larger one replaces them, so a leading NaN sticks and the first of equal
// zeros wins.
type priceFold struct{ min, max, sum float64 }

func (w *priceFold) add(ps []float64) {
	for _, p := range ps {
		if p < w.min {
			w.min = p
		}
		if p > w.max {
			w.max = p
		}
		w.sum += p
	}
}

func (w *priceFold) stats(samples int) PriceWindowStats {
	if samples == 0 {
		return PriceWindowStats{}
	}
	return PriceWindowStats{Samples: samples, Min: w.min, Mean: w.sum / float64(samples), Max: w.max}
}

// stats folds min/mean/max over the prices inside [from, to]. An ordered
// series costs two searches, then the points before the first whole chunk,
// one step per whole chunk and the points after the last: O(log n +
// n/chunkLen). An unordered series scans every price.
func (c *priceCols) stats(ordered bool, from, to time.Time) PriceWindowStats {
	f, t := stamp(from), stamp(to)
	var w priceFold
	if !ordered {
		n := 0
		for i, s := range c.at {
			if f <= s && s <= t {
				if n == 0 {
					w.min, w.max = c.price[i], c.price[i]
				}
				w.add(c.price[i : i+1])
				n++
			}
		}
		return w.stats(n)
	}
	lo := c.search(f - 1)
	hi := max(lo, c.search(t))
	if lo == hi {
		return PriceWindowStats{}
	}
	w.min, w.max = c.price[lo], c.price[lo]
	// Chunks [a, b) lie wholly inside [lo, hi).
	if a, b := (lo+chunkLen-1)/chunkLen, hi/chunkLen; a < b {
		w.add(c.price[lo : a*chunkLen])
		for _, ch := range c.chunks[a:b] {
			if ch.min < w.min {
				w.min = ch.min
			}
			if ch.max > w.max {
				w.max = ch.max
			}
			w.sum += ch.sum
		}
		w.add(c.price[b*chunkLen : hi])
	} else {
		w.add(c.price[lo:hi])
	}
	return w.stats(hi - lo)
}

// outageCols holds the derived outage intervals. Unlike every other
// family this one is not strictly append-only: closing an outage rewrites
// end[i] in place, so captures deep-copy these columns instead of
// aliasing them (outages are few — one per rejection streak). end[i] is
// openEnd while the outage is ongoing.
type outageCols struct {
	kind  []ProbeKind
	start []int64
	end   []int64
}

func (c *outageCols) n() int { return len(c.start) }

func (c *outageCols) push(kind ProbeKind, start int64) {
	c.kind = appendRow(c.kind, kind)
	c.start = appendRow(c.start, start)
	c.end = appendRow(c.end, openEnd)
}

func (c *outageCols) get(i int, id market.SpotID) OutageRecord {
	o := OutageRecord{Market: id, Kind: c.kind[i], Start: stampTime(c.start[i])}
	if c.end[i] != openEnd {
		o.End = stampTime(c.end[i])
	}
	return o
}

func (c *outageCols) appendTo(dst []OutageRecord, id market.SpotID) []OutageRecord {
	return rows(dst, c.n(), func(i int) OutageRecord { return c.get(i, id) })
}

// clone deep-copies the columns (the capture path; see the type comment);
// empty when the shard never held an outage.
func (c *outageFamily) clone() outageCols {
	if c == nil {
		return outageCols{}
	}
	return outageCols{kind: slices.Clone(c.kind), start: slices.Clone(c.start), end: slices.Clone(c.end)}
}
