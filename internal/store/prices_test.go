package store

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
	"unsafe"

	"spotlight/internal/market"
	"spotlight/internal/obs"
)

// chunkStampPalette holds instants at and past both ends of the stamp range
// — the lowest int64 and the years 1200 and 3000 among them, which
// saturate — around zero, and a few minutes of 2015.
var chunkStampPalette = []time.Time{
	time.Date(1200, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Unix(0, math.MinInt64),
	stampTime(minStamp),
	stampTime(minStamp + 1),
	time.Unix(0, -1),
	time.Unix(0, 0),
	foldBase,
	foldBase.Add(time.Minute),
	foldBase.Add(time.Hour),
	foldBase.Add(time.Hour + time.Nanosecond),
	stampTime(maxStamp - 1),
	stampTime(maxStamp),
	time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
}

// chunkPricePalette holds NaNs with payloads (a signaling one and a
// negative one among them), ±0, ±Inf, subnormals and multiples of 1/64: a
// window's sum comes out the same in any order (the subnormals are too
// small to round a normal, and their own sums are exact), so the fold can
// be held to the point-by-point definition bit for bit.
var chunkPricePalette = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff80000deadbeef),
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(1), -math.Float64frombits(1), math.Float64frombits(1 << 14),
	1.0 / 64, 0.5, 3, 77.25,
}

// chunkSeries draws n prices at palette stamps. An ordered series sorts
// its stamps, runs of duplicates included; an unordered one keeps the
// draw, so consecutive stamps jump between the ends of the range. Three
// prices in four are multiples of 1/64; the rest are palette entries, or
// a third of the time the price before (a zero XOR).
func chunkSeries(rng *rand.Rand, n int, ordered bool) []PricePoint {
	ps := make([]PricePoint, n)
	for i := range ps {
		p := float64(1+rng.IntN(5000)) / 64
		switch {
		case rng.IntN(4) > 0:
		case i > 0 && rng.IntN(3) == 0:
			p = ps[i-1].Price
		default:
			p = chunkPricePalette[rng.IntN(len(chunkPricePalette))]
		}
		ps[i] = PricePoint{At: chunkStampPalette[rng.IntN(len(chunkStampPalette))], Price: p}
	}
	if ordered {
		slices.SortStableFunc(ps, func(a, b PricePoint) int { return cmp.Compare(stamp(a.At), stamp(b.At)) })
	}
	return ps
}

// pointFold is the definition of PriceStatsIn: the in-window prices folded
// one at a time in append order.
func pointFold(ps []PricePoint) PriceWindowStats {
	var st PriceWindowStats
	sum := 0.0
	for i, p := range ps {
		if i == 0 || p.Price < st.Min {
			st.Min = p.Price
		}
		if i == 0 || p.Price > st.Max {
			st.Max = p.Price
		}
		sum += p.Price
	}
	if st.Samples = len(ps); st.Samples > 0 {
		st.Mean = sum / float64(st.Samples)
	}
	return st
}

// sameStats reports whether two folds agree bit for bit, Mean included —
// but for a NaN Mean, whose payload depends on which NaN the additions met
// first.
func sameStats(a, b PriceWindowStats) bool {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Samples == b.Samples && bitsEq(a.Min, b.Min) && bitsEq(a.Max, b.Max) &&
		(bitsEq(a.Mean, b.Mean) || math.IsNaN(a.Mean) && math.IsNaN(b.Mean))
}

// TestPriceChunksRoundTrip lands price series of every length from 0 to 40
// — two and a half chunks — in time order, shuffled, and in order but for
// one step back at a chunk edge, in batches of random size, and requires
// Prices, PricesIn and PriceStatsIn back bit for bit against the rounds
// the store keeps — every one but those that go back in time, which it
// must refuse and count — on the live store, on a follower that attached
// with a snapshot halfway and took the rest as log frames, and on the
// store reopened from a snapshot and the log.
func TestPriceChunksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 16))
	dir := t.TempDir()
	live, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live.EnableMetrics(obs.NewRegistry())
	type landed struct {
		id       market.SpotID
		ps, kept []PricePoint
	}
	var series []landed
	for n := 0; n <= 40; n++ {
		for _, typ := range []market.InstanceType{"c3.large", "m3.large", "r3.large"} {
			ps := chunkSeries(rng, n, typ != "m3.large")
			if typ == "r3.large" && n > chunkLen && stamp(ps[chunkLen-1].At) > minStamp {
				// In order but for one step back, onto the first price
				// after a seal.
				ps[chunkLen].At = stampTime(minStamp)
			}
			id := market.SpotID{Zone: market.Zone(fmt.Sprintf("zz-%d", n)), Type: typ, Product: market.ProductLinux}
			series = append(series, landed{id: id, ps: ps})
		}
	}
	refused := 0
	land := func(half int) {
		for i := range series {
			s := &series[i]
			rest := s.ps[:len(s.ps)/2]
			if half == 1 {
				rest = s.ps[len(s.ps)/2:]
			}
			var n int
			s.kept, n = landRounds(t, s.kept, rest, func(rest int) int { return 1 + rng.IntN(min(rest, chunkLen+3)) },
				func(r []PricePoint) error { return live.RecordPrices(s.id, r) })
			refused += n
		}
	}

	land(0)
	if err := live.Persister().Snapshot(); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sub, sw := serveFollow(live, nil, &stream, foldBase)
	land(1)
	pumpFollow(sub, sw, foldBase)
	sub.Close()
	if got := live.metrics.appendRefused.Value(); got != uint64(refused) || refused == 0 {
		t.Fatalf("%d rounds refused, want the %d that went back in time", got, refused)
	}
	follower := New()
	if err := follower.Follow(&stream, &testFollower{db: follower, salt: streamSalt}); err != io.EOF {
		t.Fatalf("follow: %v", err)
	}
	if err := live.Persister().Flush(); err != nil {
		t.Fatal(err)
	}
	live.Persister().Abandon()
	reopened, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Persister().Close()

	for _, db := range []struct {
		name string
		*Store
	}{{"live", live}, {"follower", follower}, {"reopened", reopened}} {
		for _, s := range series {
			what := func(read string) string {
				return fmt.Sprintf("%s: %s(%v) over %d prices", db.name, read, s.id, len(s.ps))
			}
			expectRun(t, what("Prices"), db.Prices(s.id), inWindow(s.kept, stampTime(minStamp), stampTime(maxStamp)))
			ends := append([]time.Time{}, chunkStampPalette...)
			for _, p := range s.ps {
				ends = append(ends, p.At.Add(-time.Nanosecond), p.At, p.At.Add(time.Nanosecond))
			}
			for w := 0; w < 60; w++ {
				from, to := ends[rng.IntN(len(ends))], ends[rng.IntN(len(ends))]
				want := inWindow(s.kept, from, to)
				expectRun(t, what(fmt.Sprintf("PricesIn[%v, %v]", from, to)), db.PricesIn(s.id, from, to), want)
				if got, want := db.PriceStatsIn(s.id, from, to), pointFold(want); !sameStats(got, want) {
					t.Fatalf("%s = %+v, want %+v", what(fmt.Sprintf("PriceStatsIn[%v, %v]", from, to)), got, want)
				}
			}
		}
	}
}

// TestSealedChunkRoundTrip encodes runs of stamps and prices drawn from the
// palettes, steady cadences and wrapping deltas among them, and requires
// every stamp and price bit back through the cursor, and from an ordered
// run every position locate finds.
func TestSealedChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 46))
	for round := 0; round < 2000; round++ {
		run := make(famLog[float64], chunkLen)
		at, step := stamp(chunkStampPalette[rng.IntN(len(chunkStampPalette))]), int64(rng.IntN(3))*int64(time.Hour)
		for i := range run {
			switch rng.IntN(4) {
			case 0: // anywhere: the delta wraps
				at = stamp(chunkStampPalette[rng.IntN(len(chunkStampPalette))])
			default: // a steady cadence, ordered when step > 0
				at += step
			}
			run[i] = stamped[float64]{at, chunkPricePalette[rng.IntN(len(chunkPricePalette))]}
		}
		enc := appendChunk(nil, run)
		if len(enc) > maxChunkBytes {
			t.Fatalf("a chunk encodes in %d bytes, more than maxChunkBytes %d", len(enc), maxChunkBytes)
		}
		// Decode from the chunk alone, and from inside an arena that runs on.
		for _, off := range []int{0, 3} {
			arena := append(make([]byte, off), enc...)
			if off > 0 {
				arena = append(arena, bytes.Repeat([]byte{0xff}, 9)...)
			}
			p := priceSeries{sealedPrices: sealedPrices{
				index: famLog[sealedChunk]{{run[chunkLen-1].at, sealedChunk{summarize(run), uint32(off)}}},
				arena: arena,
			}}
			var c priceCursor
			got := p.run(&c, 0)
			for i := range run {
				if got[i].at != run[i].at || math.Float64bits(got[i].row) != math.Float64bits(run[i].row) {
					t.Fatalf("round %d: entry %d decodes as %v, want %v", round, i, got[i], run[i])
				}
			}
			if !ordered(run) {
				continue
			}
			for _, s := range []int64{run[0].at - 1, run[0].at, run[7].at - 1, run[7].at, run[chunkLen-1].at - 1, run[chunkLen-1].at} {
				if i, _ := p.locate(s); i != run.after(s) {
					t.Fatalf("round %d: locate(%d) = %d, want %d", round, s, i, run.after(s))
				}
			}
		}
	}
}

// ordered reports whether the run's stamps never decrease.
func ordered(run famLog[float64]) bool {
	for i := 1; i < len(run); i++ {
		if run[i].at < run[i-1].at {
			return false
		}
	}
	return true
}

// TestHourlyMarketPriceBytes holds what one market's price log costs after
// 144 hourly prices — the read workloads' six-day study — tail included:
// the sealed part's struct, index and arena, and the tail's array. It
// measures 1,256 B (a 768-B arena holding 764, an 11-entry index holding
// 9), where 16-byte raw entries and 32-byte summaries took 3,040 B; the
// ceiling sits a tenth over the measurement.
func TestHourlyMarketPriceBytes(t *testing.T) {
	const ceiling = 1382
	s := New()
	id := persistMarket(0)
	price := 0.0123
	for i := 0; i < 144; i++ {
		if i%3 == 0 {
			price += 0.0007
		}
		s.RecordPrice(id, PricePoint{At: foldBase.Add(time.Duration(i) * time.Hour), Price: price})
	}
	l := s.lookup(id).prices
	size := cap(l.tail)*int(unsafe.Sizeof(stamped[float64]{})) +
		int(unsafe.Sizeof(sealedPrices{})) + cap(l.sealed.index)*int(unsafe.Sizeof(stamped[sealedChunk]{})) + cap(l.sealed.arena)
	t.Logf("144 hourly prices take %d B: index %d of %d entries, arena %d of %d bytes, tail %d of %d",
		size, len(l.sealed.index), cap(l.sealed.index), len(l.sealed.arena), cap(l.sealed.arena), len(l.tail), cap(l.tail))
	if size > ceiling {
		t.Errorf("144 hourly prices take %d B, want <= %d", size, ceiling)
	}
}

// TestPriceCaptureIsACut: a capture aliases the price log, so sealing
// chunks after it — the arena grown, the tail's array left to the capture
// and a fresh tail begun — must change nothing the capture reads.
func TestPriceCaptureIsACut(t *testing.T) {
	ps := make([]PricePoint, 3*chunkLen+5)
	for i := range ps {
		ps[i] = PricePoint{At: foldBase.Add(time.Duration(i) * time.Minute), Price: float64(i) / 64}
	}
	id := persistMarket(0)
	for cut := 1; cut < len(ps); cut++ {
		s := New()
		s.RecordPrices(id, ps[:cut])
		c := s.lookup(id).capture()
		for _, p := range ps[cut:] {
			s.RecordPrice(id, p)
		}
		expectRun(t, fmt.Sprintf("a capture after %d prices", cut), c.prices.rows(nil), ps[:cut])
	}
}
