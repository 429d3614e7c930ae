package query

import (
	"math"
	"slices"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/stats"
	"spotlight/internal/store"
)

var (
	mktA = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	mktB = market.SpotID{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductLinux}
	t0   = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
)

func seededEngine(t *testing.T) (*Engine, *store.Store) {
	t.Helper()
	db := store.New()
	return NewEngine(db, market.New()), db
}

// addOutage injects a detected outage through the probe path.
func addOutage(db *store.Store, m market.SpotID, kind store.ProbeKind, start, end time.Time) {
	db.AppendProbe(store.ProbeRecord{At: start, Market: m, Kind: kind, Rejected: true, Code: "x"})
	if !end.IsZero() {
		db.AppendProbe(store.ProbeRecord{At: end, Market: m, Kind: kind})
	}
}

func TestODUnavailabilityFraction(t *testing.T) {
	e, db := seededEngine(t)
	// 6 hours of outage inside a 24-hour window = 25%.
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(6*time.Hour), t0.Add(12*time.Hour))
	got, err := e.ODUnavailability(mktA, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("unavailability = %v, want 0.25", got)
	}
	// A different market is unaffected.
	got, _ = e.ODUnavailability(mktB, t0, t0.Add(24*time.Hour))
	if got != 0 {
		t.Errorf("unrelated market unavailability = %v, want 0", got)
	}
}

func TestUnavailabilityClipsToWindow(t *testing.T) {
	e, db := seededEngine(t)
	// Outage spans 22:00 day0 to 02:00 day1; window is day1 only.
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(-2*time.Hour), t0.Add(2*time.Hour))
	got, err := e.ODUnavailability(mktA, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 24.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("clipped unavailability = %v, want %v", got, want)
	}
}

func TestOngoingOutageCountsToWindowEnd(t *testing.T) {
	e, db := seededEngine(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(12*time.Hour), time.Time{})
	got, err := e.ODUnavailability(mktA, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ongoing unavailability = %v, want 0.5", got)
	}
}

// TestUnavailabilityStaysAFraction: windows wider than a Duration holds,
// over outages whose overlaps together exceed one, still read a fraction
// in [0, 1] — the overlap saturates like the window's length does.
func TestUnavailabilityStaysAFraction(t *testing.T) {
	e, db := seededEngine(t)
	year := func(y int) time.Time { return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC) }
	addOutage(db, mktA, store.ProbeOnDemand, year(1700), year(1980))
	addOutage(db, mktA, store.ProbeOnDemand, year(2000), time.Time{})
	for _, w := range [][2]time.Time{
		{time.Date(1723, 5, 23, 0, 0, 0, 0, time.UTC), time.Date(2307, 12, 11, 0, 0, 0, 0, time.UTC)},
		{year(1500), year(2500)},
		{year(1690), year(2262)},
		{year(1990), year(2100)},
	} {
		got, err := e.ODUnavailability(mktA, w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		if !(got >= 0 && got <= 1) {
			t.Errorf("unavailability over [%v, %v] = %v, want a fraction in [0, 1]", w[0], w[1], got)
		}
	}
}

func TestBadWindows(t *testing.T) {
	e, _ := seededEngine(t)
	if _, err := e.ODUnavailability(mktA, t0, t0); err != ErrBadWindow {
		t.Errorf("empty window err = %v, want ErrBadWindow", err)
	}
	if _, err := e.TopStableMarkets("", "", 5, t0, t0.Add(-time.Hour)); err != ErrBadWindow {
		t.Errorf("inverted window err = %v, want ErrBadWindow", err)
	}
	if _, err := e.RecommendFallback(mktA, 5, t0, t0); err != ErrBadWindow {
		t.Errorf("fallback empty window err = %v, want ErrBadWindow", err)
	}
	if _, err := e.Prices(mktA, t0, t0); err != ErrBadWindow {
		t.Errorf("prices empty window err = %v, want ErrBadWindow", err)
	}
}

func TestTopStableMarkets(t *testing.T) {
	e, db := seededEngine(t)
	to := t0.Add(7 * 24 * time.Hour)
	// mktA crosses the on-demand price 5 times; mktB never does.
	for i := 0; i < 5; i++ {
		db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Duration(i) * time.Hour), Market: mktA, Ratio: 1.5})
	}
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktB, Ratio: 0.5}) // sub-OD: not a crossing

	rows, err := e.TopStableMarkets("us-east-1", market.ProductLinux, 1000, t0, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*53 {
		t.Fatalf("rows = %d, want one per us-east-1 Linux market", len(rows))
	}
	// mktA must rank last among zero-crossing peers (it has 5 crossings).
	last := rows[len(rows)-1]
	if last.Market != mktA || last.Crossings != 5 {
		t.Errorf("least stable = %+v, want %v with 5 crossings", last, mktA)
	}
	wantMTTR := to.Sub(t0) / 6
	if last.MTTR != wantMTTR {
		t.Errorf("MTTR = %v, want %v", last.MTTR, wantMTTR)
	}
	// The most stable rows have zero crossings.
	if rows[0].Crossings != 0 {
		t.Errorf("most stable has %d crossings, want 0", rows[0].Crossings)
	}
}

func TestTopStableMarketsLimitsN(t *testing.T) {
	e, _ := seededEngine(t)
	rows, err := e.TopStableMarkets("", "", 10, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("rows = %d, want 10", len(rows))
	}
	if rows, _ = e.TopStableMarkets("", "", 0, t0, t0.Add(time.Hour)); rows != nil {
		t.Errorf("n=0 rows = %v, want nil", rows)
	}
}

// scopeInIDOrder lists the catalog markets of a scope, minus family skip,
// in market-ID order.
func scopeInIDOrder(cat *market.Catalog, region market.Region, product market.Product, skip market.Family) []market.SpotID {
	var ids []market.SpotID
	for _, id := range cat.SpotMarkets() {
		if inScope(id, region, product) && id.Type.Family() != skip {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, market.SpotID.Compare)
	return ids
}

// TestWalkAsksInIDOrderAndStopsAtFirstRefusal: the walk hands its rows in
// ascending market-ID order, asks admits before every row — a market the
// store has never seen included, a stored market outside the catalog never
// — and after the first refusal asks nothing more and adds no row.
func TestWalkAsksInIDOrderAndStopsAtFirstRefusal(t *testing.T) {
	e, db := seededEngine(t)
	first := scopeInIDOrder(e.cat, "us-west-2", market.ProductLinux, "")
	// Stored markets adopted against ID order, and one outside the catalog.
	for _, id := range []market.SpotID{first[5], first[2], {Zone: "us-west-2z", Type: "c3.large", Product: market.ProductLinux}} {
		addOutage(db, id, store.ProbeOnDemand, t0, t0.Add(time.Hour))
	}
	for _, c := range []struct {
		region  market.Region
		product market.Product
		skip    market.Family
		stop    int // index in the scope of the first refused market; -1 for none
	}{
		{"us-west-2", market.ProductLinux, "", 7},
		{"us-west-2", market.ProductLinux, "", 0},
		{"us-west-2", market.ProductLinux, "", -1},
		{"us-west-2", "", "", -1},
		{"us-west-2", market.ProductWindows, "c3", 40},
		{"", "", "", -1},
	} {
		scope := scopeInIDOrder(e.cat, c.region, c.product, c.skip)
		var asked, rows []market.SpotID
		admits := func(id market.SpotID) bool {
			if len(asked) != len(rows) {
				t.Errorf("%+v: asked about %v before %v's row", c, id, asked[len(asked)-1])
			}
			asked = append(asked, id)
			return c.stop < 0 || id != scope[c.stop]
		}
		e.walk(c.region, c.product, c.skip, t0, t0.Add(2*time.Hour), admits, func(id market.SpotID, crossings int, odUnav float64) {
			if len(asked) == 0 || asked[len(asked)-1] != id {
				t.Errorf("%+v: row of %v, which admits was not just asked about", c, id)
			}
			rows = append(rows, id)
			want := 0.0
			if id == first[5] || id == first[2] {
				want = 0.5
			}
			if crossings != 0 || odUnav != want {
				t.Errorf("%+v: %v's row: %d crossings, on-demand unavailability %v; want 0 and %v", c, id, crossings, odUnav, want)
			}
		})
		wantAsked, wantRows := scope, scope
		if c.stop >= 0 {
			wantAsked, wantRows = scope[:c.stop+1], scope[:c.stop]
		}
		if !slices.Equal(asked, wantAsked) {
			t.Errorf("%+v: admits asked about %d markets, want the scope's first %d in ID order", c, len(asked), len(wantAsked))
		}
		if !slices.Equal(rows, wantRows) {
			t.Errorf("%+v: %d rows, want the scope's first %d in ID order", c, len(rows), len(wantRows))
		}
	}
}

// TestStableWalkCostFollowsN counts a stable ranking's walk by hand. With
// the k lowest-ID markets of a scope holding one crossing each and every
// other market none, a ranking of n folds the k crossing markets, each
// admitted while a row with a crossing is kept, and the n zero-crossing
// markets that push them out and fill the selection; the next market's
// best case ties the kept rows and loses on ID, so the walk views exactly
// n + k + 1 markets and folds n + k.
func TestStableWalkCostFollowsN(t *testing.T) {
	from, to := t0, t0.Add(24*time.Hour)
	for _, k := range []int{0, 1, 4, 12} {
		for _, n := range []int{1, 5, 10} {
			e, db := seededEngine(t)
			scope := scopeInIDOrder(e.cat, "us-east-1", market.ProductLinux, "")
			for _, id := range scope[:k] {
				db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: id, Ratio: 1.5})
			}
			top := stats.NewTopN(n, stableBefore)
			viewed, folded := 0, 0
			e.walk("us-east-1", market.ProductLinux, "", from, to, func(id market.SpotID) bool {
				viewed++
				return top.Admits(StableMarket{Market: id})
			}, func(id market.SpotID, crossings int, odUnav float64) {
				folded++
				top.Push(StableMarket{Market: id, Crossings: crossings, ODUnavailability: odUnav})
			})
			if viewed != n+k+1 || folded != n+k {
				t.Errorf("k=%d n=%d: walk viewed %d markets and folded %d, want %d and %d", k, n, viewed, folded, n+k+1, n+k)
			}
			rows, err := e.TopStableMarkets("us-east-1", market.ProductLinux, n, from, to)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != n {
				t.Errorf("k=%d n=%d: %d rows", k, n, len(rows))
			}
			for i, r := range rows {
				if r.Market != scope[k+i] || r.Crossings != 0 {
					t.Errorf("k=%d n=%d: row %d is %v with %d crossings, want %v with none", k, n, i, r.Market, r.Crossings, scope[k+i])
				}
			}
		}
	}
}

func TestRecommendFallbackAvoidsFamilyAndPrefersAvailable(t *testing.T) {
	e, db := seededEngine(t)
	to := t0.Add(24 * time.Hour)
	// Make one candidate family visibly bad.
	bad := market.SpotID{Zone: "us-east-1d", Type: "m3.large", Product: market.ProductLinux}
	addOutage(db, bad, store.ProbeOnDemand, t0, t0.Add(12*time.Hour))

	rows, err := e.RecommendFallback(mktA, 5, t0, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, row := range rows {
		if row.Market.Type.Family() == "c3" {
			t.Errorf("fallback %v shares the trigger family", row.Market)
		}
		if row.Market == bad {
			t.Errorf("fallback recommended the known-bad market")
		}
		if row.ODUnavailability != 0 {
			t.Errorf("fallback %v has unavailability %v, want 0", row.Market, row.ODUnavailability)
		}
	}
}

func TestSummaryAggregates(t *testing.T) {
	e, db := seededEngine(t)
	now := t0.Add(24 * time.Hour)
	db.AppendProbe(store.ProbeRecord{At: t0, Market: mktA, Kind: store.ProbeSpot, Rejected: true, Code: "capacity-not-available"})
	db.AppendProbe(store.ProbeRecord{At: t0, Market: mktA, Kind: store.ProbeSpot})
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(time.Hour))
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 0.5})

	sums := e.Summary(now)
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1 region", len(sums))
	}
	s := sums[0]
	if s.Region != "us-east-1" {
		t.Errorf("region = %v", s.Region)
	}
	if s.ODOutages != 1 || s.MeanODOutage != time.Hour {
		t.Errorf("od outages = %d mean %v", s.ODOutages, s.MeanODOutage)
	}
	if s.TotalODProbes != 2 || s.RejectedODProbes != 1 {
		t.Errorf("od probes = %d/%d", s.RejectedODProbes, s.TotalODProbes)
	}
	if s.TotalSpotProbes != 2 || math.Abs(s.RejectedSpotPcnt-0.5) > 1e-9 {
		t.Errorf("spot probes = %d rejected frac %v", s.TotalSpotProbes, s.RejectedSpotPcnt)
	}
	if s.SpikesAboveOD != 1 || s.ObservedSpikesAll != 2 {
		t.Errorf("spikes = %d/%d", s.SpikesAboveOD, s.ObservedSpikesAll)
	}
}

func TestPricesAndSummaryStats(t *testing.T) {
	e, db := seededEngine(t)
	for i, p := range []float64{0.1, 0.3, 0.2} {
		db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Duration(i) * time.Hour), Price: p})
	}
	db.RecordPrice(mktA, store.PricePoint{At: t0.Add(48 * time.Hour), Price: 9}) // outside window

	got, err := e.Prices(mktA, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Price != 0.1 || got[1].Price != 0.3 || got[2].Price != 0.2 {
		t.Fatalf("prices = %+v, want the three in-window points in order", got)
	}
	empty, err := e.Prices(mktB, t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("empty window = %+v", empty)
	}
	if _, err := e.Prices(mktA, t0, t0); err != ErrBadWindow {
		t.Errorf("empty window err = %v, want ErrBadWindow", err)
	}
}
