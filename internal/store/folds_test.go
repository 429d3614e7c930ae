package store

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
)

// The windowed folds behind the rankings — PriceStatsIn, CrossingStatsFor,
// RevocationStats, OutageOverlap, OutagesOpened and their MarketView twins
// — read sealed chunk summaries and binary-searched int64 stamps instead of
// walking records. These tests hold them to naive loops over the public accessors,
// on series built to put duplicate stamps, window ends and special floats
// on every side of a chunk edge, and appended in rounds some of which go
// back in time: the store must refuse and count exactly those, and hold
// exactly the rest.

var foldBase = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)

// foldSeries is one market's records in append order: as drawn, or as the
// store keeps them (landRounds).
type foldSeries struct {
	id     market.SpotID
	prices []PricePoint
	spikes []SpikeEvent
	revs   []RevocationRecord
	bids   []BidSpreadRecord
	probes []ProbeRecord
}

// foldStamps draws n stamps a few minutes apart, non-decreasing, with
// runs of equal stamps — forced, half the time, across every chunk edge —
// and shuffled when the series is to go back in time.
func foldStamps(rng *rand.Rand, n int, ordered bool) []time.Time {
	ts := make([]time.Time, n)
	at := foldBase.Add(time.Duration(rng.IntN(60)) * time.Minute)
	for i := range ts {
		if i > 0 && (rng.IntN(4) == 0 || (i%chunkLen == 0 && rng.IntN(2) == 0)) {
			ts[i] = ts[i-1]
			continue
		}
		at = at.Add(time.Duration(1+rng.IntN(3)) * time.Minute)
		ts[i] = at
	}
	if !ordered {
		rng.Shuffle(n, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	}
	return ts
}

// foldPrice draws a price: non-negative and finite (decimal, so sums round
// differently in different orders), ±0, and — when special — NaN and ±Inf.
// A tied series draws only zeros of either sign (and, when special, NaN
// and -Inf), so chunks and windows tie on their min and max — the case the
// first-wins rule decides.
func foldPrice(rng *rand.Rand, special, tied bool) float64 {
	if tied {
		palette := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1)}
		if !special {
			palette = palette[:2]
		}
		return palette[rng.IntN(len(palette))]
	}
	switch k := rng.IntN(20); {
	case special && k == 0:
		return math.NaN()
	case special && k == 1:
		return math.Inf(1)
	case special && k == 2:
		return math.Inf(-1)
	case k == 3:
		return 0
	case k == 4:
		return math.Copysign(0, -1)
	}
	return float64(1+rng.IntN(5000)) / 1000
}

// randomFoldSeries draws one market's records: 0 to 5 chunks of prices,
// and spikes, revocations, bid spreads and probes, each family either in
// or out of time order. The probes' rejections open outages, the last of
// them often left open, and one probe in five is of neither kind.
func randomFoldSeries(rng *rand.Rand, id market.SpotID, special bool) foldSeries {
	s := foldSeries{id: id}
	tied := rng.IntN(3) == 0
	for _, at := range foldStamps(rng, rng.IntN(5*chunkLen+1), rng.IntN(3) != 0) {
		s.prices = append(s.prices, PricePoint{At: at, Price: foldPrice(rng, special, tied)})
	}
	for _, at := range foldStamps(rng, rng.IntN(3*chunkLen), rng.IntN(3) != 0) {
		s.spikes = append(s.spikes, SpikeEvent{At: at, Market: id, Ratio: 0.5 + float64(rng.IntN(8))/4})
	}
	for _, at := range foldStamps(rng, rng.IntN(2*chunkLen), rng.IntN(3) != 0) {
		s.revs = append(s.revs, RevocationRecord{At: at, Market: id, Held: time.Duration(1+rng.IntN(300)) * time.Minute})
	}
	for _, at := range foldStamps(rng, rng.IntN(2*chunkLen), rng.IntN(3) != 0) {
		s.bids = append(s.bids, BidSpreadRecord{At: at, Market: id, Published: float64(rng.IntN(90)) / 100, Intrinsic: float64(rng.IntN(90)) / 100, Attempts: rng.IntN(9)})
	}
	for _, at := range foldStamps(rng, rng.IntN(2*chunkLen), rng.IntN(3) != 0) {
		kind := []ProbeKind{ProbeOnDemand, ProbeOnDemand, ProbeSpot, ProbeSpot, 0, 7}[rng.IntN(6)]
		s.probes = append(s.probes, ProbeRecord{At: at, Market: id, Kind: kind, Rejected: rng.IntN(2) == 0})
	}
	return s
}

// load appends the series, each family in rounds of random size so they
// end on both sides of chunk edges, and returns what the store keeps of it
// and how many rounds it refused (landRounds).
func (s foldSeries) load(t *testing.T, rng *rand.Rand, db *Store) (kept foldSeries, refused int) {
	return s.landIn(t, db, func(rest int) int { return 1 + rng.IntN(min(rest, 2*chunkLen)) })
}

// landIn appends the series in rounds of the sizes size draws; see load.
func (s foldSeries) landIn(t *testing.T, db *Store, size func(rest int) int) (kept foldSeries, refused int) {
	kept.id = s.id
	var n [5]int
	kept.prices, n[0] = landRounds(t, nil, s.prices, size, func(r []PricePoint) error { return db.RecordPrices(s.id, r) })
	kept.spikes, n[1] = landRounds(t, nil, s.spikes, size, db.AppendSpikes)
	kept.revs, n[2] = landRounds(t, nil, s.revs, size, db.AppendRevocations)
	kept.bids, n[3] = landRounds(t, nil, s.bids, size, db.AppendBidSpreads)
	kept.probes, n[4] = landRounds(t, nil, s.probes, size, db.AppendProbes)
	return kept, n[0] + n[1] + n[2] + n[3] + n[4]
}

// landRounds appends recs through add, to a series that holds kept, in
// rounds of the sizes size draws, and returns what the series must then
// hold — kept and the rounds whose stamps go back in time neither within
// the round nor before the newest kept one; equal stamps never do — and
// how many rounds it must refuse. add's error must say which it did.
func landRounds[R record](t *testing.T, kept, recs []R, size func(rest int) int, add func([]R) error) (_ []R, refused int) {
	t.Helper()
	last := int64(math.MinInt64)
	if n := len(kept); n > 0 {
		at, _ := fields(&kept[n-1])
		last = stamp(*at)
	}
	for rest := recs; len(rest) > 0; {
		round := rest[:size(len(rest))]
		rest = rest[len(round):]
		err := add(round)
		prev, back := last, false
		for i := range round {
			at, _ := fields(&round[i])
			back = back || stamp(*at) < prev
			prev = stamp(*at)
		}
		if back != errors.Is(err, ErrBackInTime) {
			t.Errorf("a round that goes back in time: %v; its append returned %v", back, err)
		}
		if back {
			refused++
			continue
		}
		kept, last = append(kept, round...), prev
	}
	return kept, refused
}

// foldWindows are the windows checked on a series: ends on samples, a
// second either side of them, and well outside the series — in both
// orders, so empty and inverted windows are covered too.
func foldWindows(rng *rand.Rand, s foldSeries) [][2]time.Time {
	ends := []time.Time{foldBase.Add(-24 * time.Hour), foldBase.Add(30 * 24 * time.Hour), foldBase}
	for _, p := range s.prices {
		ends = append(ends, p.At, p.At.Add(-time.Second), p.At.Add(time.Second))
	}
	for _, e := range s.spikes {
		ends = append(ends, e.At)
	}
	for _, p := range s.probes {
		ends = append(ends, p.At, p.At.Add(time.Second))
	}
	out := [][2]time.Time{{ends[0], ends[1]}}
	for i := 0; i < 40; i++ {
		out = append(out, [2]time.Time{ends[rng.IntN(len(ends))], ends[rng.IntN(len(ends))]})
	}
	return out
}

// foldAnswers is every windowed fold of one market over one window.
type foldAnswers struct {
	prices      PriceWindowStats
	crossings   CrossingStats
	watches     int
	held        time.Duration
	odOverlap   time.Duration
	spotOverlap time.Duration
	opened      int
}

// storeFolds asks the store's per-market reads.
func storeFolds(db *Store, id market.SpotID, from, to time.Time) foldAnswers {
	var a foldAnswers
	a.prices = db.PriceStatsIn(id, from, to)
	a.crossings = db.CrossingStatsFor(id, from, to)
	w := WindowOf(from, to)
	db.ScanScope(id.Region(), id.Product, func(v MarketView) {
		if v.Market() == id {
			a.watches, a.held = v.RevocationStats(w)
			a.opened = v.OutagesOpened(w)
		}
	})
	a.odOverlap = db.OutageOverlap(id, ProbeOnDemand, from, to)
	a.spotOverlap = db.OutageOverlap(id, ProbeSpot, from, to)
	return a
}

// viewFolds asks the same of the market's MarketView.
func viewFolds(db *Store, id market.SpotID, from, to time.Time) (a foldAnswers, seen bool) {
	w := WindowOf(from, to)
	db.ScanScope(id.Region(), id.Product, func(v MarketView) {
		if v.Market() != id {
			return
		}
		seen = true
		a.prices = v.PriceStats(w)
		a.crossings = v.CrossingStats(w)
		a.watches, a.held = v.RevocationStats(w)
		a.odOverlap = v.OutageOverlap(ProbeOnDemand, w)
		a.spotOverlap = v.OutageOverlap(ProbeSpot, w)
		a.opened = v.OutagesOpened(w)
	})
	return a, seen
}

// naiveFolds is the definition: loops over the public accessors, with the
// window's ends saturated to the stamp range as the store reads them.
// Outages come from the market's probes, walked in the order the store
// holds them (probeOutages), never from the store's outage reads.
func naiveFolds(db *Store, id market.SpotID, from, to time.Time) foldAnswers {
	var a foldAnswers
	from, to = canonical(from), canonical(to)
	sum := 0.0
	for i, p := range db.PricesIn(id, from, to) {
		if i == 0 || p.Price < a.prices.Min {
			a.prices.Min = p.Price
		}
		if i == 0 || p.Price > a.prices.Max {
			a.prices.Max = p.Price
		}
		a.prices.Samples++
		sum += p.Price
	}
	if a.prices.Samples > 0 {
		a.prices.Mean = sum / float64(a.prices.Samples)
	}
	for _, e := range db.SpikesInWindow(from, to, func(m market.SpotID) bool { return m == id }) {
		if e.Ratio >= 1 {
			a.crossings.Crossings++
			if e.Ratio > a.crossings.MaxRatio {
				a.crossings.MaxRatio = e.Ratio
			}
		}
	}
	for _, r := range db.RevocationsFor(id, from, to) {
		a.watches++
		a.held += r.Held
	}
	// Overlaps add up exactly, then saturate to the longest Duration.
	probes := db.ProbesInWindow(minStampTime, maxStampTime, func(r ProbeRecord) bool { return r.Market == id })
	overlap := func(kind ProbeKind) time.Duration {
		total := new(big.Int)
		for _, o := range probeOutages(probes, kind) {
			start, end := o.Start, o.End
			if end.IsZero() {
				end = to
			}
			if start.Before(from) {
				start = from
			}
			if end.After(to) {
				end = to
			}
			if end.After(start) {
				total.Add(total, big.NewInt(int64(end.Sub(start))))
			}
			if !o.Start.Before(from) && !o.Start.After(to) {
				a.opened++
			}
		}
		if !total.IsInt64() {
			return math.MaxInt64
		}
		return time.Duration(total.Int64())
	}
	a.odOverlap, a.spotOverlap = overlap(ProbeOnDemand), overlap(ProbeSpot)
	return a
}

// checkFloor holds the view's PriceFloor to its contract: a number at
// most every non-NaN price in the window, or no bound — and a bound
// whenever the market has no NaN price at all.
func checkFloor(t *testing.T, db *Store, id market.SpotID, from, to time.Time) {
	t.Helper()
	floor, bounded := 0.0, false
	db.ScanScope(id.Region(), id.Product, func(v MarketView) {
		if v.Market() == id {
			floor, bounded = v.PriceFloor(WindowOf(from, to))
		}
	})
	if !bounded {
		for _, p := range db.PricesIn(id, minStampTime, maxStampTime) {
			if math.IsNaN(p.Price) {
				return
			}
		}
		if db.Generation(id) > 0 {
			t.Fatalf("%v [%v, %v]: no price floor on a series without NaN", id, from, to)
		}
		return
	}
	if math.IsNaN(floor) {
		t.Fatalf("%v [%v, %v]: the price floor is NaN", id, from, to)
	}
	for _, p := range db.PricesIn(id, from, to) {
		if p.Price < floor {
			t.Fatalf("%v [%v, %v]: price floor %v above the price %v at %v", id, from, to, floor, p.Price, p.At)
		}
	}
}

// sameBits reports whether two answers agree bit for bit, Mean included.
func sameBits(a, b foldAnswers) bool {
	pa, pb := a.prices, b.prices
	a.prices, b.prices = PriceWindowStats{}, PriceWindowStats{}
	return a == b && pa.Samples == pb.Samples &&
		math.Float64bits(pa.Min) == math.Float64bits(pb.Min) &&
		math.Float64bits(pa.Mean) == math.Float64bits(pb.Mean) &&
		math.Float64bits(pa.Max) == math.Float64bits(pb.Max)
}

// matchesOracle is the oracle contract: everything exact, Min and Max bit
// for bit, Mean within 1e-12 relative (NaN where the oracle's is).
func matchesOracle(got, want foldAnswers) bool {
	gm, wm := got.prices.Mean, want.prices.Mean
	closeMean := gm == wm || (math.IsNaN(gm) && math.IsNaN(wm)) ||
		math.Abs(gm-wm) <= 1e-12*math.Max(math.Abs(gm), math.Abs(wm))
	got.prices.Mean = wm // compared above; NaN payloads may differ with the summation order
	return closeMean && sameBits(got, want)
}

// checkAccessors holds the accessors the oracle loops over, and every other
// read of one family, to the records that were appended: exactly the
// in-window ones, in append order, and across markets grouped in market-ID
// order. Outages are held to the walk of the appended probes (probeOutages).
func checkAccessors(t *testing.T, db *Store, series []foldSeries, k int, from, to time.Time) {
	t.Helper()
	s := series[k]
	what := func(read string) string { return fmt.Sprintf("%s(%v, %v, %v)", read, s.id, from, to) }
	expectRun(t, what("PricesIn"), db.PricesIn(s.id, from, to), inWindow(s.prices, from, to))
	expectRun(t, what("RevocationsFor"), db.RevocationsFor(s.id, from, to), inWindow(s.revs, from, to))
	spikes := inWindow(s.spikes, from, to)
	expectRun(t, what("SpikesFor"), db.SpikesFor(s.id, from, to), spikes)
	expectRun(t, what("SpikesInWindow with keep"), db.SpikesInWindow(from, to, func(m market.SpotID) bool { return m == s.id }), spikes)
	byID := slices.Clone(series)
	slices.SortFunc(byID, func(a, b foldSeries) int { return a.id.Compare(b.id) })
	var all []SpikeEvent
	for _, o := range byID {
		all = append(all, inWindow(o.spikes, from, to)...)
	}
	expectRun(t, what("SpikesInWindow"), db.SpikesInWindow(from, to, nil), all)
	spot := func(r ProbeRecord) bool { return r.Market == s.id && r.Kind == ProbeSpot }
	expectRun(t, what("ProbesInWindow with keep"), db.ProbesInWindow(from, to, spot),
		slices.DeleteFunc(inWindow(s.probes, from, to), func(r ProbeRecord) bool { return !spot(r) }))
	expectRun(t, what("BidSpreadsFor"), db.BidSpreadsFor(s.id), s.bids)
	for _, kind := range []ProbeKind{ProbeOnDemand, ProbeSpot} {
		expectRun(t, fmt.Sprintf("OutagesFor(%v, %v)", s.id, kind), db.OutagesFor(s.id, kind), probeOutages(s.probes, kind))
	}
}

// probeOutages walks probes in order through the outage rule: a rejected
// probe of kind with none open opens one, the kind's next accepted probe
// closes it. Outages come out in the order they opened.
func probeOutages(probes []ProbeRecord, kind ProbeKind) []OutageRecord {
	var out []OutageRecord
	open := -1
	for _, p := range probes {
		switch {
		case p.Kind != kind:
		case p.Rejected && open < 0:
			open = len(out)
			out = append(out, OutageRecord{Market: p.Market, Kind: kind, Start: p.At})
		case !p.Rejected && open >= 0:
			out[open].End, open = p.At, -1
		}
	}
	return out
}

// inWindow returns the records of recs inside [from, to] in order, each at
// the instant the store hands back for it.
func inWindow[R record](recs []R, from, to time.Time) []R {
	var out []R
	for _, r := range recs {
		at, _ := fields(&r)
		*at = canonical(*at)
		if !at.Before(canonical(from)) && !at.After(canonical(to)) {
			out = append(out, r)
		}
	}
	return out
}

// expectRun fails t unless got holds want's records in order, floats bit
// for bit.
func expectRun[T any](t *testing.T, what string, got, want []T) {
	t.Helper()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = bitEqual(reflect.ValueOf(got[i]), reflect.ValueOf(want[i]))
	}
	if !ok {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// bitEqual is == with floats compared by their bits, so NaN equals the same
// NaN and -0 does not equal +0.
func bitEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		if ta, ok := a.Interface().(time.Time); ok {
			return ta == b.Interface().(time.Time)
		}
		for i := range a.NumField() {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// checkFolds runs every window of every series — as the store keeps it —
// against the oracle, on the per-market reads and the market views alike,
// and holds the accessors to the series.
func checkFolds(t *testing.T, what string, db *Store, series []foldSeries, windows [][][2]time.Time) {
	t.Helper()
	for k, s := range series {
		for _, w := range windows[k] {
			from, to := w[0], w[1]
			want := naiveFolds(db, s.id, from, to)
			got := storeFolds(db, s.id, from, to)
			if !matchesOracle(got, want) {
				t.Fatalf("%s: %v [%v, %v]:\n got  %+v\n want %+v", what, s.id, from, to, got, want)
			}
			checkFloor(t, db, s.id, from, to)
			view, seen := viewFolds(db, s.id, from, to)
			if seen != (db.Generation(s.id) > 0) || (seen && !sameBits(view, got)) {
				t.Fatalf("%s: %v [%v, %v]: view %+v (seen %v), per-market reads %+v", what, s.id, from, to, view, seen, got)
			}
			checkAccessors(t, db, series, k, from, to)
		}
	}
}

// sameAsLive requires other to answer every window bit for bit as live.
func sameAsLive(t *testing.T, what string, other, live *Store, series []foldSeries, windows [][][2]time.Time) {
	t.Helper()
	for k, s := range series {
		for _, w := range windows[k] {
			got, want := storeFolds(other, s.id, w[0], w[1]), storeFolds(live, s.id, w[0], w[1])
			if !sameBits(got, want) {
				t.Fatalf("%s: %v [%v, %v]:\n got  %+v\n live %+v", what, s.id, w[0], w[1], got, want)
			}
		}
	}
}

// TestWindowedFoldsMatchNaiveOracle appends random series, families out
// of time order among them, to a live store, and holds it and every store
// built from it — reopened from its data dir, loaded from its dump — to
// the oracle over the records the contract keeps and to the live answers
// bit for bit, and the dump to a byte-exact dump → load → dump round trip,
// outages included.
func TestWindowedFoldsMatchNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 16))
	for round := 0; round < 12; round++ {
		special := round%2 == 0 // NaN and ±Inf prices
		dir := t.TempDir()
		live, err := Open(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		live.EnableMetrics(obs.NewRegistry())
		var series []foldSeries
		var windows [][][2]time.Time
		for m := 0; m < 8; m++ {
			s := randomFoldSeries(rng, persistMarket(m), special)
			series = append(series, s)
			windows = append(windows, foldWindows(rng, s))
		}
		refused := 0
		for i, s := range series {
			kept, n := s.load(t, rng, live)
			series[i], refused = kept, refused+n
			if i == len(series)/2 {
				// Half the markets reach the reopened store through the
				// snapshot, the rest through the log.
				if err := live.Persister().Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := live.Persister().Flush(); err != nil {
			t.Fatal(err)
		}
		live.Persister().Abandon()
		what := fmt.Sprintf("round %d", round)
		if got := live.metrics.appendRefused.Value(); got != uint64(refused) {
			t.Fatalf("%s: %d rounds refused, want the %d that went back in time", what, got, refused)
		}
		checkFolds(t, what+" live", live, series, windows)

		reopened, err := Open(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkFolds(t, what+" reopened", reopened, series, windows)
		sameAsLive(t, what+" reopened", reopened, live, series, windows)
		if err := reopened.Persister().Close(); err != nil {
			t.Fatal(err)
		}
		dump := dumpOf(t, live)
		loaded, err := loadDump([]byte(dump))
		if err != nil {
			t.Fatal(err)
		}
		checkFolds(t, what+" loaded", loaded, series, windows)
		sameAsLive(t, what+" loaded", loaded, live, series, windows)
		if again := dumpOf(t, loaded); again != dump {
			t.Fatalf("%s: the loaded store's dump differs from the dump", what)
		}
	}
}

// TestWindowedFoldsUnderConcurrentAppends: readers fold while writers
// append prices across chunk edges. A fold sees some prefix of each
// series, so its sample count names the prefix, and the rest of its answer
// must be that prefix's naive fold. Run under -race it also checks that
// sealing a chunk publishes nothing a reader can see half-built.
func TestWindowedFoldsUnderConcurrentAppends(t *testing.T) {
	const markets, perMarket = 4, 20 * chunkLen
	db := New()
	price := func(m, i int) float64 { return float64((m*7919+i*104729)%997) / 100 }
	at := func(i int) time.Time { return foldBase.Add(time.Duration(i) * time.Minute) }
	var writers, readers sync.WaitGroup
	for m := 0; m < markets; m++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			id := persistMarket(m)
			for i := 0; i < perMarket; {
				n := min(perMarket-i, 1+(i*31)%(chunkLen+3))
				batch := make([]PricePoint, n)
				for k := range batch {
					batch[k] = PricePoint{At: at(i + k), Price: price(m, i+k)}
				}
				db.RecordPrices(id, batch)
				i += n
			}
		}()
	}
	done := make(chan struct{})
	errs := make(chan error, markets)
	for m := 0; m < markets; m++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			id := persistMarket(m)
			for q := 0; ; q++ {
				select {
				case <-done:
					if q >= 400 {
						return
					}
				default:
				}
				lo := (q * 37) % perMarket
				hi := lo + (q*53)%(perMarket-lo)
				got := db.PriceStatsIn(id, at(lo), at(hi))
				var want PriceWindowStats
				sum := 0.0
				for i := lo; i < lo+got.Samples; i++ {
					p := price(m, i)
					if i == lo || p < want.Min {
						want.Min = p
					}
					if i == lo || p > want.Max {
						want.Max = p
					}
					want.Samples++
					sum += p
				}
				if want.Samples > 0 {
					want.Mean = sum / float64(want.Samples)
				}
				if got.Samples > hi-lo+1 || got.Min != want.Min || got.Max != want.Max ||
					math.Abs(got.Mean-want.Mean) > 1e-12*math.Abs(want.Mean) {
					errs <- fmt.Errorf("%v [%d, %d]: got %+v, the prefix's fold is %+v", id, lo, hi, got, want)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// fuzzSeries decodes a fuzz input into one market's records, three bytes
// a stamp: a signed step in minutes (zero duplicates a stamp, a negative
// one goes back in time, and the extremes jump 400 years, past either end
// of the stamp range), then a code. Each stamp is one price — NaN, ±Inf and
// -0 for the first four codes, cents otherwise — and one spike, revocation
// and probe carrying the same number and bits of the code.
func fuzzSeries(data []byte, id market.SpotID) foldSeries {
	s := foldSeries{id: id}
	at := foldBase
	for ; len(data) >= 3; data = data[3:] {
		switch step := int8(data[0]); step {
		case math.MinInt8:
			at = at.AddDate(-400, 0, 0)
		case math.MaxInt8:
			at = at.AddDate(400, 0, 0)
		default:
			at = at.Add(time.Duration(step) * time.Minute)
		}
		code := uint16(data[1]) | uint16(data[2])<<8
		price := float64(code) / 100
		if code < 4 {
			price = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[code]
		}
		kind := ProbeKind(1 + code&1)
		s.prices = append(s.prices, PricePoint{At: at, Price: price})
		s.spikes = append(s.spikes, SpikeEvent{At: at, Market: id, Price: price, Ratio: price, Probed: code&2 != 0})
		s.revs = append(s.revs, RevocationRecord{At: at, Market: id, Bid: price, Held: time.Duration(code) * time.Second})
		s.probes = append(s.probes, ProbeRecord{At: at, Market: id, Kind: kind, Rejected: code&2 != 0, SpikeRatio: price, Cost: price})
	}
	return s
}

// FuzzPriceWindow holds every windowed fold, per market and on the market
// view, to the oracle of TestWindowedFoldsMatchNaiveOracle, and PricesIn, SpikesFor,
// RevocationsFor and ProbesInWindow to the in-window input the store keeps
// bit for bit, on whatever series and window the fuzzer builds; the window
// ends are nanosecond offsets from the series start, so they reach past
// both ends of the stamp range. Each family lands in rounds of three
// stamps: a round that goes back in time, within itself or before what
// landed, must be refused and counted, and leave the store as it was.
func FuzzPriceWindow(f *testing.F) {
	var ordered, edges []byte
	for i := 0; i < 5*chunkLen+3; i++ {
		ordered = append(ordered, 1, byte(i*37), byte(i%3))
		step := byte(1)
		if i%chunkLen == 0 {
			step = 0 // a repeated stamp across every chunk edge
		}
		edges = append(edges, step, byte(4+i*11), 0)
	}
	f.Add(ordered, int64(10*time.Minute), int64(70*time.Minute))
	// Price i is stamped i+1 minutes in, so chunk k holds minutes 16k+1 to
	// 16k+16: windows starting and ending on either side of a chunk edge.
	f.Add(ordered, int64(16*time.Minute), int64(48*time.Minute))
	f.Add(ordered, int64(17*time.Minute), int64(49*time.Minute))
	f.Add(ordered, int64(16*time.Minute+time.Second), int64(33*time.Minute-time.Second))
	f.Add(ordered, int64(17*time.Minute), int64(17*time.Minute))
	f.Add(edges, int64(0), int64(time.Hour))
	f.Add([]byte{5, 0, 0, 5, 1, 0, 5, 2, 0, 5, 3, 0, 5, 9, 0}, int64(0), int64(time.Hour))
	// A chunk of NaN only, whose summary gives no bound, then one of
	// prices: windows over either and both.
	var nans []byte
	for i := 0; i < 2*chunkLen+2; i++ {
		code := byte(0)
		if i >= chunkLen {
			code = byte(4 + i)
		}
		nans = append(nans, 1, code, 0)
	}
	f.Add(nans, int64(0), int64(10*time.Minute))
	f.Add(nans, int64(17*time.Minute), int64(40*time.Minute))
	f.Add(nans, int64(0), int64(time.Hour))
	f.Add([]byte{3, 10, 0, 0xfe, 20, 0, 4, 30, 0}, int64(time.Minute), int64(math.MaxInt64))
	f.Add([]byte{1, 6, 0, 0x7f, 7, 0, 0, 8, 0, 0x80, 9, 0, 0x80, 10, 0, 0x7f, 11, 0, 0xfe, 12, 0}, int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, data []byte, from, to int64) {
		db, id := New(), persistMarket(0)
		db.EnableMetrics(obs.NewRegistry())
		s, refused := fuzzSeries(data, id).landIn(t, db, func(rest int) int { return min(rest, 3) })
		if got := db.metrics.appendRefused.Value(); got != uint64(refused) {
			t.Fatalf("%d rounds refused, want the %d that went back in time", got, refused)
		}
		w0, w1 := foldBase.Add(time.Duration(from)), foldBase.Add(time.Duration(to))
		got, want := storeFolds(db, id, w0, w1), naiveFolds(db, id, w0, w1)
		if !matchesOracle(got, want) {
			t.Fatalf("[%v, %v] over %d stamps:\n got  %+v\n want %+v", w0, w1, len(s.prices), got, want)
		}
		if view, _ := viewFolds(db, id, w0, w1); !sameBits(view, got) {
			t.Fatalf("[%v, %v]: view %+v, per-market reads %+v", w0, w1, view, got)
		}
		checkFloor(t, db, id, w0, w1)
		what := func(read string) string { return fmt.Sprintf("%s(%v, %v)", read, w0, w1) }
		expectRun(t, what("PricesIn"), db.PricesIn(id, w0, w1), inWindow(s.prices, w0, w1))
		expectRun(t, what("SpikesFor"), db.SpikesFor(id, w0, w1), inWindow(s.spikes, w0, w1))
		expectRun(t, what("RevocationsFor"), db.RevocationsFor(id, w0, w1), inWindow(s.revs, w0, w1))
		expectRun(t, what("ProbesInWindow"), db.ProbesInWindow(w0, w1, nil), inWindow(s.probes, w0, w1))
	})
}

// TestPriceFloorIsTightOnWholeChunks: a window of whole runs that ends
// with the series reads only its own summaries and tail prices, so its
// floor is its minimum. One that ends on a chunk's last stamp also reads
// the next chunk's summary, since without decoding its first stamp that
// chunk may begin inside, but not the tail's prices after it: the tail
// holds the series' lowest price, which such a window must not see. The
// same prices shuffled are refused whole, leaving their market unwritten.
func TestPriceFloorIsTightOnWholeChunks(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 49))
	const n = 5*chunkLen + 7
	var ordered, shuffled []PricePoint
	for i := range n {
		ordered = append(ordered, PricePoint{At: foldBase.Add(time.Duration(i+1) * time.Minute), Price: float64(1+rng.IntN(5000)) / 1000})
	}
	ordered[n-1].Price = 0
	shuffled = slices.Clone(ordered)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	db := New()
	db.RecordPrices(persistMarket(0), ordered)
	db.RecordPrices(persistMarket(1), shuffled)
	floor := func(id market.SpotID, from, to time.Time) (f float64, ok bool) {
		db.ScanScope(id.Region(), id.Product, func(v MarketView) {
			if v.Market() == id {
				f, ok = v.PriceFloor(WindowOf(from, to))
			}
		})
		return f, ok
	}
	lowest := func(ps []PricePoint) float64 {
		return slices.MinFunc(ps, func(a, b PricePoint) int { return cmp.Compare(a.Price, b.Price) }).Price
	}
	// Runs start every chunkLen prices; the last one is the tail.
	starts := []int{0, chunkLen, 2 * chunkLen, 3 * chunkLen, 4 * chunkLen, 5 * chunkLen, n}
	for a := 0; a+1 < len(starts); a++ {
		for b := a + 1; b < len(starts); b++ {
			from, to := ordered[starts[a]].At, ordered[starts[b]-1].At
			end := starts[b]
			if b < len(starts)-2 { // the next run is a sealed chunk
				end = starts[b+1]
			}
			got, ok := floor(persistMarket(0), from, to)
			if want := lowest(ordered[starts[a]:end]); !ok || got != want {
				t.Errorf("runs [%d, %d) [%v, %v]: floor %v (%v), want %v", a, b, from, to, got, ok, want)
			}
		}
	}
	if got, ok := floor(persistMarket(1), ordered[0].At, ordered[n-1].At); ok || db.Generation(persistMarket(1)) != 0 {
		t.Errorf("shuffled series: floor %v (%v), want none: its market holds no price", got, ok)
	}
}
