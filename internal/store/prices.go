package store

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Prices. The published-price series is the densest series in a study, so
// a shard keeps it in two parts: sealed chunks of chunkLen prices, encoded
// once and never rewritten, and a raw tail of fewer than chunkLen entries
// that fills in append order and seals when it is full.
//
// A sealed chunk is an index entry and a run of arena bytes. The entry is
// pointer-free: the chunk's summary (priceChunk), stamped with the run's
// last stamp, and the offset of its bytes in the shard's arena. The bytes
// are Gorilla's encoding (Pelkonen et al., VLDB 2015), byte-aligned:
//
//	first stamp, first price   8 bytes each, little-endian, raw
//	chunkLen-1 stamps           zigzag varints of the delta of deltas
//	chunkLen-1 prices           each XOR'd with its predecessor: a header
//	                            byte (leading zero bytes << 4 | trailing
//	                            zero bytes), then the bytes between
//
// Stamp deltas use wrapping int64 arithmetic, so saturated, duplicate and
// even reversed stamps round-trip exactly. A study's hourly prices take about
// 101 bytes a chunk —
// 16 raw, 21 of stamps, 64 of prices — where raw entries took 256.
//
// Reads find their window in the index, whose last stamps narrow a search
// to one run, decode at most one chunk at each window edge, and fold the
// whole chunks between from their summaries; a walk of the whole series
// (snapshots, the follow stream, exports) decodes each chunk once, through
// one priceCursor.
//
// Sealing keeps captures zero-copy: the arena and the index only ever grow
// past what a capture holds (or move to a fresh array), and a sealed tail
// is dropped, not reused — the next one starts from nil. Only recovery,
// which owns its shards alone, stages a whole replay's prices in one tail
// array and seals out of it in place (reserve, settle).

// chunkLen is how many consecutive prices one sealed chunk holds.
const chunkLen = 16

const (
	// maxChunkBytes bounds one chunk's encoding: 16 raw bytes, a varint of
	// at most 10 bytes per stamp and a header byte plus at most 8 per price.
	maxChunkBytes = 16 + (chunkLen-1)*(binary.MaxVarintLen64+1+8)
	// arenaGuess is what recovery reserves a chunk before it knows: a
	// study's hourly prices take about 101 bytes.
	arenaGuess = 128
)

// priceChunk summarizes one sealed run of chunkLen prices: their sum,
// added left to right from +0, and their min and max under the window
// fold's strict first-wins comparison with NaN skipped (NaN when the whole
// run is). Seeded with a window's first price, the fold then folds a chunk
// in one step and lands on the bits it would reach point by point.
type priceChunk struct{ min, max, sum float64 }

func summarize(ps famLog[float64]) priceChunk {
	ch := priceChunk{min: math.NaN(), max: math.NaN()}
	for _, e := range ps {
		p := e.row
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

// sealedChunk is a sealed chunk's index entry: its summary and where its
// bytes start in the arena. An arena is bounded by the uint32 offset: 4 GiB,
// some 40 million chunks of one market.
type sealedChunk struct {
	priceChunk
	off uint32
}

// sealedPrices is a price log's sealed part, allocated on its first seal:
// the index (index[k] covers prices k*chunkLen to (k+1)*chunkLen) and the
// arena holding the chunks' bytes back to back.
type sealedPrices struct {
	index famLog[sealedChunk]
	arena []byte
}

// priceLog is a shard's price series: its sealed part and its tail.
type priceLog struct {
	sealed *sealedPrices
	tail   famLog[float64]
}

// series returns the log as a read sees it: the sealed part's slice
// headers copied out, so a capture holding it aliases only bytes and
// entries no later append rewrites.
func (l *priceLog) series() priceSeries { return priceSeries{value(l.sealed), l.tail} }

// push appends a price at stamp at, which the append round has held to the
// series' newest (last). The run that fills seals. A tail doubles from one
// entry to chunkLen, five allocations a chunk.
func (l *priceLog) push(at int64, price float64) {
	if n := len(l.tail); n == cap(l.tail) {
		l.tail = append(make(famLog[float64], 0, min(max(2*n, 1), chunkLen)), l.tail...)
	}
	l.tail = append(l.tail, stamped[float64]{at, price})
	if len(l.tail) == chunkLen {
		l.seal()
	}
}

// last returns the stamp of the series' newest price (famLog.last): the
// tail's, or the last sealed chunk's when the tail is empty.
func (l *priceLog) last() int64 { return max(l.tail.last(), value(l.sealed).index.last()) }

// seal encodes the full tail into the arena and indexes it. The tail's
// array goes with it unless it has room for a whole next run (recovery's
// staging array, see reserve).
func (l *priceLog) seal() {
	s := ensure(&l.sealed)
	var buf [maxChunkBytes]byte
	run := l.tail[:chunkLen]
	s.index = appendRow(s.index, stamped[sealedChunk]{run[chunkLen-1].at, sealedChunk{summarize(run), uint32(len(s.arena))}})
	s.arena = appendBytes(s.arena, appendChunk(buf[:0], run))
	if rest := l.tail[chunkLen:]; cap(rest) >= chunkLen {
		l.tail = rest
	} else {
		l.tail = nil
	}
}

// reserve readies the log for n more prices, which recovery has counted:
// the index exactly, the arena at arenaGuess a chunk, and the tail as one
// staging array that seal leaves the runs in — so landing the prices
// allocates nothing per chunk. settle trims what the guesses left over.
func (l *priceLog) reserve(n int) {
	if runs := (len(l.tail) + n) / chunkLen; runs > 0 {
		s := ensure(&l.sealed)
		s.index.reserve(runs)
		s.arena = grown(s.arena, runs*arenaGuess)
	}
	l.tail.reserve(n)
}

// settle ends a recovery: the index, the arena and the tail move to arrays
// of their own lengths, dropping the staging array and the unused guess.
func (l *priceLog) settle() {
	if s := l.sealed; s != nil {
		s.index, s.arena = clipped(s.index), clipped(s.arena)
	}
	l.tail = clipped(l.tail)
}

// clipped returns s in an array of its own length (up to the allocator's
// size class), nil when empty.
func clipped[T any](s []T) []T {
	switch {
	case len(s) == 0:
		return nil
	case len(s) < cap(s):
		return append([]T(nil), s...)
	}
	return s
}

// appendBytes appends b to the arena. A full arena moves to a fresh array
// of len + len/4 + len(b) bytes, rounded up to the allocator's size class:
// appendRow's step for an entry of any length.
func appendBytes(arena, b []byte) []byte {
	if n := len(arena); n+len(b) > cap(arena) {
		arena = append(slices.Grow([]byte(nil), n+n/4+len(b)), arena...)
	}
	return append(arena, b...)
}

// appendChunk appends the encoding of a run of chunkLen prices to b.
func appendChunk(b []byte, run famLog[float64]) []byte {
	prev := math.Float64bits(run[0].row)
	b = binary.LittleEndian.AppendUint64(b, uint64(run[0].at))
	b = binary.LittleEndian.AppendUint64(b, prev)
	var delta int64
	for i := 1; i < chunkLen; i++ {
		d := run[i].at - run[i-1].at
		b = binary.AppendVarint(b, d-delta)
		delta = d
	}
	hdr := len(b)
	b = append(b, make([]byte, chunkLen-1)...)
	for i, e := range run[1:] {
		p := math.Float64bits(e.row)
		x := p ^ prev
		prev = p
		if x == 0 {
			b[hdr+i] = 8 << 4
			continue
		}
		lead, trail := bits.LeadingZeros64(x)/8, bits.TrailingZeros64(x)/8
		b[hdr+i] = byte(lead<<4 | trail)
		for x >>= 8 * trail; x != 0; x >>= 8 {
			b = append(b, byte(x))
		}
	}
	return b
}

// decodeStamps decodes the stamps of the chunk whose bytes b starts with,
// and its first price, into out, and returns the offset in b of the
// chunk's price headers.
func decodeStamps(b []byte, out *[chunkLen]stamped[float64]) int {
	at, first := chunkHead(b)
	out[0] = stamped[float64]{at, first}
	delta, j := binary.Varint(b[16:])
	j += 16
	at += delta
	out[1].at = at
	if steady(b, j) {
		for i := 2; i < chunkLen; i++ {
			at += delta
			out[i].at = at
		}
		return j + chunkLen - 2
	}
	for i := 2; i < chunkLen; i++ {
		dd, n := binary.Varint(b[j:])
		delta += dd
		at += delta
		out[i].at = at
		j += n
	}
	return j
}

// steady reports whether the chunk's stamps after the second, whose delta
// of deltas start at b[j], keep a steady cadence: every one a zero byte.
func steady(b []byte, j int) bool {
	return len(b) >= j+chunkLen-2 && binary.LittleEndian.Uint64(b[j:])|binary.LittleEndian.Uint64(b[j+chunkLen-10:]) == 0
}

// chunkHead reads the raw first stamp and price of the chunk whose bytes b
// starts with.
func chunkHead(b []byte) (int64, float64) {
	return int64(binary.LittleEndian.Uint64(b)), math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
}

// xorLen, xorMask and xorShift read a price's header byte: how many bytes
// follow it, the mask that keeps them from an 8-byte load, and how far
// they shift back into place.
var xorLen, xorShift [256]uint8
var xorMask [256]uint64

func init() {
	for h := range 256 {
		lead, trail := h>>4, h&15
		if n := 8 - lead - trail; n >= 0 {
			xorLen[h], xorShift[h] = uint8(n), uint8(8*trail)
			xorMask[h] = math.MaxUint64 >> (64 - 8*n)
		}
	}
}

// decodePrices decodes positions 0 to to-1 of the prices of the chunk
// whose bytes start at b[off], whose price headers start at b[hdr], into
// out. The headers come first, so each price's offset is a sum of header
// bytes, not a walk of the bytes before it; b runs to the arena's end, so
// every chunk but the last loads its bytes eight at a time.
func decodePrices(b []byte, off, hdr, to int, out *[chunkLen]float64) {
	bits := binary.LittleEndian.Uint64(b[off+8:])
	out[0] = math.Float64frombits(bits)
	hs, m := b[hdr:hdr+chunkLen-1], hdr+chunkLen-1
	for i := 1; i < to; i++ {
		h := hs[i-1]
		x, n := uint64(0), int(xorLen[h])
		if m+8 <= len(b) { // one load, masked to the n bytes
			x = binary.LittleEndian.Uint64(b[m:]) & xorMask[h]
		} else {
			for k := n - 1; k >= 0; k-- {
				x = x<<8 | uint64(b[m+k])
			}
		}
		m += n
		bits ^= x << xorShift[h]
		out[i] = math.Float64frombits(bits)
	}
}

// priceSeries is a price log as one read, or one capture, holds it.
type priceSeries struct {
	sealedPrices
	tail famLog[float64]
}

func (p *priceSeries) len() int { return len(p.index)*chunkLen + len(p.tail) }

// priceCursor walks a series run by run: the sealed chunk it was last
// asked for stays decoded in buf, so asking again decodes nothing.
type priceCursor struct {
	held int // 1 + the chunk buf holds; 0 for none
	buf  [chunkLen]stamped[float64]
}

// run returns run k of the series through c: sealed chunk k decoded, or
// the tail for k == len(p.index).
func (p *priceSeries) run(c *priceCursor, k int) famLog[float64] {
	if k == len(p.index) {
		return p.tail
	}
	if c.held != k+1 {
		off := int(p.index[k].row.off)
		hdr := off + decodeStamps(p.arena[off:], &c.buf)
		var ps [chunkLen]float64
		decodePrices(p.arena, off, hdr, chunkLen, &ps)
		for i, v := range ps {
			c.buf[i].row = v
		}
		c.held = k + 1
	}
	return c.buf[:]
}

// locate is after on the series: the index narrows it to one run,
// whose stamps it reads unless its first is already past s. hdr is the
// arena offset of that chunk's price headers when it read them.
func (p *priceSeries) locate(s int64) (i, hdr int) {
	k := p.index.after(s)
	if k == len(p.index) {
		return k*chunkLen + p.tail.after(s), -1
	}
	off := int(p.index[k].row.off)
	if at, _ := chunkHead(p.arena[off:]); at > s {
		return k * chunkLen, -1
	}
	var run [chunkLen]stamped[float64]
	hdr = off + decodeStamps(p.arena[off:], &run)
	return k*chunkLen + famLog[float64](run[:]).after(s), hdr
}

// bounds returns the positions [i, end) of the prices stamped inside
// [f, t]: two locates. lo and hi are the header offsets the locates read
// (-1 for none).
func (p *priceSeries) bounds(f, t int64) (i, end, lo, hi int) {
	i, lo = p.locate(f - 1) // f is a stamp, so f-1 cannot overflow
	end, hi = p.locate(t)
	return i, max(i, end), lo, hi
}

// collect appends every price stamped inside [f, t] to dst, in series
// order, decoding only the runs bounds hands it.
func (p *priceSeries) collect(dst []PricePoint, f, t int64) []PricePoint {
	i, end, _, _ := p.bounds(f, t)
	dst = grown(dst, end-i)
	var c priceCursor
	for ; i < end; i = (i/chunkLen + 1) * chunkLen {
		k := i / chunkLen
		for _, e := range p.run(&c, k)[i%chunkLen : min(end-k*chunkLen, chunkLen)] {
			dst = append(dst, priceOf(e, owner{}))
		}
	}
	return dst
}

// rows appends every price of the series to dst.
func (p *priceSeries) rows(dst []PricePoint) []PricePoint {
	dst = grown(dst, p.len())
	var c priceCursor
	for k := 0; k <= len(p.index); k++ {
		for _, e := range p.run(&c, k) {
			dst = append(dst, priceOf(e, owner{}))
		}
	}
	return dst
}

// priceFold accumulates a window's price stats in series order: min and
// max start at the window's first price and only a strictly smaller or
// larger one replaces them, so a leading NaN sticks and the first of equal
// zeros wins.
type priceFold struct{ min, max, sum float64 }

func (w *priceFold) one(p float64) {
	if p < w.min {
		w.min = p
	}
	if p > w.max {
		w.max = p
	}
	w.sum += p
}

func (w *priceFold) add(ps famLog[float64]) {
	for _, e := range ps {
		w.one(e.row)
	}
}

// fold folds a whole sealed chunk in one step.
func (w *priceFold) fold(ch priceChunk) {
	if ch.min < w.min {
		w.min = ch.min
	}
	if ch.max > w.max {
		w.max = ch.max
	}
	w.sum += ch.sum
}

// part folds positions [from, to) of sealed chunk k, whose price headers
// start at arena offset hdr, decoding its prices up to to; seed starts
// the fold at position from.
func (w *priceFold) part(p *priceSeries, k, hdr, from, to int, seed bool) {
	var ps [chunkLen]float64
	decodePrices(p.arena, int(p.index[k].row.off), hdr, to, &ps)
	if seed {
		w.min, w.max = ps[from], ps[from]
	}
	for _, v := range ps[from:to] {
		w.one(v)
	}
}

func (w *priceFold) stats(samples int) PriceWindowStats {
	if samples == 0 {
		return PriceWindowStats{}
	}
	return PriceWindowStats{Samples: samples, Min: w.min, Mean: w.sum / float64(samples), Max: w.max}
}

// stats folds min/mean/max over the prices inside [f, t]: two locates,
// then the points of the edge runs — a chunk's prices decoded at each edge
// at most — and one step per whole chunk between: O(log n + n/chunkLen).
func (p *priceSeries) stats(f, t int64) PriceWindowStats {
	var w priceFold
	i, end, lo, hi := p.bounds(f, t)
	if i == end {
		return PriceWindowStats{}
	}
	a, b := i/chunkLen, end/chunkLen // the runs holding the window's ends
	sealed := len(p.index)
	switch {
	case a == b && a == sealed:
		w.min, w.max = p.tail[i%chunkLen].row, p.tail[i%chunkLen].row
		w.add(p.tail[i%chunkLen : end%chunkLen])
		return w.stats(end - i)
	case a == b:
		w.part(p, a, max(lo, hi), i%chunkLen, end%chunkLen, true)
		return w.stats(end - i)
	case i%chunkLen != 0:
		w.part(p, a, lo, i%chunkLen, chunkLen, true)
		a++
	default:
		_, first := chunkHead(p.arena[p.index[a].row.off:])
		w.min, w.max = first, first
	}
	for _, e := range p.index[a:b] { // the whole chunks between
		w.fold(e.row.priceChunk)
	}
	switch {
	case end%chunkLen == 0:
	case b == sealed:
		w.add(p.tail[:end%chunkLen])
	default:
		w.part(p, b, hi, 0, end%chunkLen, false)
	}
	return w.stats(end - i)
}

// floor returns a lower bound on every non-NaN price stamped inside
// [f, t], read from the chunk summaries and the tail alone: no arena byte
// is decoded. It reads the chunks the window can touch — from the first
// ending at or after f to the first ending past t, which may begin inside
// — and the tail when no chunk ends past t. false when a summary or an
// in-window tail price is NaN: there is no bound to give.
func (p *priceSeries) floor(f, t int64) (float64, bool) {
	tail := p.tail
	a, b := p.index.after(f-1), p.index.after(t) // f is a stamp, so f-1 cannot overflow
	if b < len(p.index) {
		tail = nil
	}
	lo := math.Inf(1)
	for _, e := range p.index[a:max(a, min(b+1, len(p.index)))] {
		if e.row.min != e.row.min {
			return 0, false
		}
		lo = min(lo, e.row.min)
	}
	for _, e := range tail {
		if f <= e.at && e.at <= t {
			if e.row != e.row {
				return 0, false
			}
			lo = min(lo, e.row)
		}
	}
	return lo, true
}
