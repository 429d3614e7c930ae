package store

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// Record storage. Each record family is one stamped log (famLog): its
// rows in append order, each beside the int64 stamp it was appended at,
// and every operation a family needs — push, exact reserve, the newest
// stamp, the binary-searched window and materializing rows — is written
// once, on the log. A family supplies only a row type and one row→record
// conversion (probeOf, spikeOf, ...). Rows instead of parallel columns
// cost no fold anything: a price window folds its whole chunks from their
// summaries and touches prices only at its edges, and every other fold
// reads all of its row but a revocation's bid. Snapshot encode/decode still
// stream record-at-a-time without ever materializing a []Record: encoders
// walk a log and build one stack-allocated record per frame.
//
// Logs are append-only: a committed entry is never rewritten. That
// invariant is what makes zero-copy captures safe: a capture copies the
// log's slice header under the shard lock, and concurrent appends only
// ever touch entries at or past the captured length — or a freshly
// reallocated backing array.
//
// The market of every record in a shard's logs is the shard's own ID
// (append paths route records by Market, and the WAL decoder rejects
// mismatches), so the Market field is not stored per record: conversions
// take the owner and stamp its ID back in.
//
// No row holds a pointer: its fields are numbers, bools or structs of
// numbers, so the collector never scans a record
// (TestColumnsArePointerFree). A probe row holds its TriggerMarket and its
// shape (kind, trigger, source kind, rejection and Code) as uint32 indices
// into the store's append-only dictionaries (probeDicts).
// An index means something only inside one process's store: conversions
// turn it back into the value before a record leaves the store, so the
// log, snapshots, the follow stream and every export carry the values,
// and no index is ever persisted or compared across stores.
//
// A full log grows by a quarter of its length plus one entry, rounded up
// to the allocator's size class (appendRow), not by append's doubling, so
// a resident log carries up to about a quarter of itself in slack: a log
// of 16-byte entries steps from 128 to 168, so one holding 144 carries
// 24. The price log, the densest, keeps no such log: its history is
// sealed chunks (prices.go), whose arena grows by the same step over
// encoded bytes, beside a raw tail of less than one chunk. Recovery,
// which counts its frames first, reserves logs exactly.

// Stamps. Every stamp is int64 Unix nanoseconds — 8 bytes and no
// *Location for the collector to scan — converted once by stamp on the way
// in and materialized by stampTime on the way out, so a record reads back
// as the same UTC instant whether it was appended live, recovered from a
// data dir or followed from a stream. Instants outside the int64 range
// (1677-09-21 to 2262-04-11, the zero time.Time among them) saturate to
// its ends. The lowest int64 is held back: it is noOutage, the open
// outage start of a kind that is available.
const (
	noOutage = math.MinInt64
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

// stamped is one entry of a family's log: a row and the stamp it was
// appended at.
type stamped[T any] struct {
	at  int64
	row T
}

// famLog is one family's log of one shard, in append order.
type famLog[T any] []stamped[T]

// push appends row at stamp at, which the append round has held to the
// log's newest (last).
func (l *famLog[T]) push(at int64, row T) { *l = appendRow(*l, stamped[T]{at, row}) }

// last returns the stamp of the log's newest entry; math.MinInt64, which no
// stamp precedes, when it is empty.
func (l famLog[T]) last() int64 {
	if len(l) == 0 {
		return math.MinInt64
	}
	return l[len(l)-1].at
}

// reserve grows the log for n more entries in one exact allocation —
// recovery counts a shard's frames before decoding them, so the hot decode
// loop never pays appendRow's step growth (or its copying).
func (l *famLog[T]) reserve(n int) { *l = grown(*l, n) }

// after returns the index of the first entry of the log stamped past s
// (len(l) when none).
func (l famLog[T]) after(s int64) int {
	lo, hi := 0, len(l)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l[m].at <= s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// span returns the entries stamped inside [from, to]: two binary searches.
// from is a stamp, so from-1 cannot overflow.
func (l famLog[T]) span(from, to int64) famLog[T] {
	l = l[l.after(from-1):]
	return l[:l.after(to)]
}

// owner is what turns a shard's rows back into records: the shard's
// market, stamped into each record, and the store's dictionaries.
type owner struct {
	id    market.SpotID
	dicts *probeDicts
}

// rows appends rec of every entry of l to dst.
func rows[T, R any](dst []R, l famLog[T], o owner, rec func(stamped[T], owner) R) []R {
	dst = grown(dst, len(l))
	for _, e := range l {
		dst = append(dst, rec(e, o))
	}
	return dst
}

// grown returns dst with room for n more elements. An empty dst gets
// exactly n (windowed reads know their result size from the
// binary-searched bounds, log reservation from the frame pre-count); a
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

// appendRow appends v to a slice. A full slice moves to a fresh array
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

// probeRow is one probe, 40 bytes (48 with its stamp) and no pointer: its
// four numbers, and indices into the store's probeDicts for its shape and
// its trigger market.
type probeRow struct {
	spikeRatio, priceRatio, bid, cost float64
	shape, triggerMarket              uint32
}

// probeRowOf is r's row at the end of probe log l: its shape and trigger
// market interned, the last row's indices tried first.
func probeRowOf(r *ProbeRecord, l famLog[probeRow], d *probeDicts) probeRow {
	prev := probeRow{shape: noPrev, triggerMarket: noPrev}
	if n := len(l); n > 0 {
		prev = l[n-1].row
	}
	shape := d.shapes.id(probeShape{r.Kind, r.SourceKind, r.Trigger, r.Rejected, r.Code}, prev.shape)
	trigger := d.markets.id(r.TriggerMarket, prev.triggerMarket)
	return probeRow{r.SpikeRatio, r.PriceRatio, r.Bid, r.Cost, shape, trigger}
}

// The row→record conversions, one per family.

func probeOf(e stamped[probeRow], o owner) ProbeRecord {
	r, s := e.row, o.dicts.shapes.at(e.row.shape)
	return ProbeRecord{
		At: stampTime(e.at), Market: o.id, Kind: s.kind, Trigger: s.trigger,
		TriggerMarket: o.dicts.markets.at(r.triggerMarket), SourceKind: s.sourceKind,
		SpikeRatio: r.spikeRatio, PriceRatio: r.priceRatio,
		Rejected: s.rejected, Code: s.code, Bid: r.bid, Cost: r.cost,
	}
}

type spikeRow struct {
	price, ratio float64
	probed       bool
}

func spikeOf(e stamped[spikeRow], o owner) SpikeEvent {
	return SpikeEvent{At: stampTime(e.at), Market: o.id, Price: e.row.price, Ratio: e.row.ratio, Probed: e.row.probed}
}

type bidSpreadRow struct {
	published, intrinsic float64
	attempts             int
}

func bidSpreadOf(e stamped[bidSpreadRow], o owner) BidSpreadRecord {
	r := e.row
	return BidSpreadRecord{At: stampTime(e.at), Market: o.id, Published: r.published, Intrinsic: r.intrinsic, Attempts: r.attempts}
}

type revocationRow struct {
	bid  float64
	held time.Duration
}

func revocationOf(e stamped[revocationRow], o owner) RevocationRecord {
	return RevocationRecord{At: stampTime(e.at), Market: o.id, Bid: e.row.bid, Held: e.row.held}
}

func priceOf(e stamped[float64], _ owner) PricePoint {
	return PricePoint{At: stampTime(e.at), Price: e.row}
}
