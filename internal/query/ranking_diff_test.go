package query

import (
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"spotlight/internal/advisor"
	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// The four rankings read the store through one scope scan and keep their
// rows with a bounded selection. These tests hold them to the naive
// definition: per-market public folds over the documented row set, a full
// stable sort on the documented keys with the String() tie-break, then
// truncation.

// marketRecords is everything one market contributes to a random store.
type marketRecords struct {
	id     market.SpotID
	spikes []store.SpikeEvent
	probes []store.ProbeRecord
	revs   []store.RevocationRecord
	prices []store.PricePoint
}

const diffSpan = 72 * time.Hour

// randomRecords draws a store's worth of records: catalog markets of three
// regions (most catalog markets get none, so zero rows are exercised),
// plus a stored market outside the catalog in each way a market can be.
// A third of the markets are appended out of time order, which pushes
// their shards onto the unordered fold paths.
func randomRecords(rng *rand.Rand, cat *market.Catalog) []marketRecords {
	var ids []market.SpotID
	for _, id := range cat.SpotMarkets() {
		switch id.Region() {
		case "us-east-1", "us-west-2", "sa-east-1":
			if rng.Intn(6) == 0 {
				ids = append(ids, id)
			}
		}
	}
	ids = append(ids,
		market.SpotID{Zone: "us-east-1z", Type: "c3.large", Product: market.ProductLinux},
		market.SpotID{Zone: "us-east-1a", Type: "zz.large", Product: market.ProductLinux},
		market.SpotID{Zone: "us-east-1a", Type: "c3.large", Product: "BeOS"},
	)
	at := func() time.Time { return t0.Add(time.Duration(rng.Int63n(int64(diffSpan)))) }
	var out []marketRecords
	for _, id := range ids {
		m := marketRecords{id: id}
		// Each (market, family) series is in time order, as the store
		// takes it.
		stamps := func(n int) []time.Time {
			ts := make([]time.Time, n)
			for i := range ts {
				ts[i] = at()
			}
			sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
			return ts
		}
		// Few distinct crossing counts and ratios, so rows tie down to the ID.
		for _, ts := range stamps(rng.Intn(4)) {
			m.spikes = append(m.spikes, store.SpikeEvent{At: ts, Market: id, Ratio: 0.5 + 0.5*float64(rng.Intn(4))})
		}
		for _, ts := range stamps(2 * rng.Intn(3)) {
			kind := store.ProbeOnDemand
			if rng.Intn(3) == 0 {
				kind = store.ProbeSpot
			}
			m.probes = append(m.probes, store.ProbeRecord{At: ts, Market: id, Kind: kind, Rejected: rng.Intn(2) == 0})
		}
		for _, ts := range stamps(rng.Intn(3)) {
			m.revs = append(m.revs, store.RevocationRecord{At: ts, Market: id, Held: time.Duration(1+rng.Intn(5)) * time.Hour})
		}
		if rng.Intn(4) != 0 {
			od, err := cat.SpotODPrice(id)
			if err != nil {
				od = 1
			}
			for _, ts := range stamps(1 + rng.Intn(12)) {
				m.prices = append(m.prices, store.PricePoint{At: ts, Price: od * (0.1 + 0.3*float64(rng.Intn(4)))})
			}
		}
		out = append(out, m)
	}
	return out
}

// loadRecords appends the markets in the given order, which is the order
// their shards are adopted in — and so the order a scope scan visits them.
// With shuffle set, each market's families go in an order it draws.
func loadRecords(recs []marketRecords, order []int, shuffle *rand.Rand) *store.Store {
	db := store.New()
	for _, i := range order {
		m, app := recs[i], db.Appender(recs[i].id)
		families := []func(){
			func() {
				for _, e := range m.spikes {
					app.AppendSpike(e)
				}
			},
			func() { app.AppendProbes(m.probes) },
			func() {
				for _, r := range m.revs {
					app.AppendRevocation(r)
				}
			},
			func() {
				for _, p := range m.prices {
					app.RecordPrice(p)
				}
			},
		}
		if shuffle != nil {
			shuffle.Shuffle(len(families), func(a, b int) { families[a], families[b] = families[b], families[a] })
		}
		for _, add := range families {
			add()
		}
		if held, want := db.Generation(m.id), len(m.spikes)+len(m.probes)+len(m.revs)+len(m.prices); held != uint64(want) {
			panic(fmt.Sprintf("%v holds %d records of %d: the store refused a round", m.id, held, want))
		}
	}
	return db
}

func inScope(id market.SpotID, region market.Region, product market.Product) bool {
	return (region == "" || id.Region() == region) && (product == "" || id.Product == product)
}

func cut[T any](rows []T, n int) []T {
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

func oracleStable(db *store.Store, cat *market.Catalog, region market.Region, product market.Product, n int, from, to time.Time) []StableMarket {
	var rows []StableMarket
	for _, id := range cat.SpotMarkets() {
		if !inScope(id, region, product) {
			continue
		}
		c := db.CrossingStatsFor(id, from, to).Crossings
		rows = append(rows, StableMarket{
			Market: id, Crossings: c, MTTR: to.Sub(from) / time.Duration(c+1),
			ODUnavailability: float64(db.OutageOverlap(id, store.ProbeOnDemand, from, to)) / float64(to.Sub(from)),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Crossings != b.Crossings {
			return a.Crossings < b.Crossings
		}
		if a.ODUnavailability != b.ODUnavailability {
			return a.ODUnavailability < b.ODUnavailability
		}
		return a.Market.String() < b.Market.String()
	})
	return cut(rows, n)
}

func oracleVolatile(db *store.Store, region market.Region, product market.Product, n int, from, to time.Time) []VolatileMarket {
	var rows []VolatileMarket
	for _, id := range db.Markets() {
		cs := db.CrossingStatsFor(id, from, to)
		if !inScope(id, region, product) || cs.Crossings == 0 {
			continue
		}
		row := VolatileMarket{Market: id, Crossings: cs.Crossings, MaxRatio: cs.MaxRatio}
		var held time.Duration
		for _, rv := range db.RevocationsFor(id, from, to) {
			row.Watches++
			held += rv.Held
		}
		if row.Watches > 0 {
			row.MeanHeld = held / time.Duration(row.Watches)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Crossings != b.Crossings {
			return a.Crossings > b.Crossings
		}
		if a.MaxRatio != b.MaxRatio {
			return a.MaxRatio > b.MaxRatio
		}
		return a.Market.String() < b.Market.String()
	})
	return cut(rows, n)
}

func oracleFallback(db *store.Store, cat *market.Catalog, m market.SpotID, n int, from, to time.Time) []Fallback {
	var rows []Fallback
	for _, id := range cat.UncorrelatedCandidates(m) {
		rows = append(rows, Fallback{
			Market:           id,
			ODUnavailability: float64(db.OutageOverlap(id, store.ProbeOnDemand, from, to)) / float64(to.Sub(from)),
			Crossings:        db.CrossingStatsFor(id, from, to).Crossings,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.ODUnavailability != b.ODUnavailability {
			return a.ODUnavailability < b.ODUnavailability
		}
		if a.Crossings != b.Crossings {
			return a.Crossings < b.Crossings
		}
		return a.Market.String() < b.Market.String()
	})
	return cut(rows, n)
}

// oracleAdvise is docs/advisor.md's scoring, market by market.
func oracleAdvise(db *store.Store, cat *market.Catalog, c advisor.Constraints, from, to time.Time) []api.AdviseCandidate {
	window := float64(to.Sub(from))
	rows := []api.AdviseCandidate{}
	for _, id := range db.PricedMarkets() {
		inRegions := len(c.Regions) == 0
		for _, r := range c.Regions {
			inRegions = inRegions || r == id.Region()
		}
		inProducts := len(c.Products) == 0
		for _, p := range c.Products {
			inProducts = inProducts || p == id.Product
		}
		vcpu, vErr := cat.VCPU(id.Type)
		mem, _ := cat.MemoryGB(id.Type)
		od, odErr := cat.SpotODPrice(id)
		ps := db.PriceStatsIn(id, from, to)
		typeOK := c.TypePattern == ""
		if !typeOK {
			typeOK, _ = path.Match(c.TypePattern, string(id.Type))
		}
		if !inRegions || !inProducts || !typeOK || ps.Samples == 0 || odErr != nil ||
			(c.MinVCPU > 0 && (vErr != nil || vcpu < c.MinVCPU)) ||
			(c.MaxPrice > 0 && ps.Mean > c.MaxPrice) {
			continue
		}
		crossings := db.CrossingStatsFor(id, from, to).Crossings
		interruption := min(1, float64(crossings)*float64(time.Hour)/window)
		if c.MaxInterruption > 0 && interruption > c.MaxInterruption {
			continue
		}
		spotUnav := min(1, float64(db.OutageOverlap(id, store.ProbeSpot, from, to))/window)
		live := db.OutageOverlap(id, store.ProbeSpot, to.Add(-time.Second), to) > 0 ||
			db.OutageOverlap(id, store.ProbeOnDemand, to.Add(-time.Second), to) > 0
		savings := 1 - ps.Mean/od
		score := 100 * (0.45*max(0, min(1, savings)) + 0.30*max(0, 1-spotUnav) + 0.25*(1/(1+float64(crossings))))
		if live {
			score *= 0.5
		}
		rows = append(rows, api.AdviseCandidate{
			Market: id.String(), VCPU: vcpu, MemoryGB: mem, OnDemandPrice: od,
			SpotPriceMin: ps.Min, SpotPriceMean: ps.Mean, SpotPriceMax: ps.Max, PriceSamples: ps.Samples,
			SavingsPcnt: savings * 100, Crossings: crossings, InterruptionRate: interruption,
			SpotUnavailability: spotUnav, Revocations: len(db.RevocationsFor(id, from, to)),
			LiveOutage: live, Score: score,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.InterruptionRate != b.InterruptionRate {
			return a.InterruptionRate < b.InterruptionRate
		}
		return a.Market < b.Market
	})
	rows = cut(rows, c.N)
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows
}

func TestRankingsMatchNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cat := market.New()
	recs := randomRecords(rng, cat)
	order := rng.Perm(len(recs))
	db := loadRecords(recs, order, nil)
	// The same records adopted in another order, each market's families
	// too: a scan visits the shards differently, the answers may not.
	shuffled := loadRecords(recs, rng.Perm(len(recs)), rng)
	for round := 0; round < 12; round++ {
		from := t0.Add(time.Duration(rng.Int63n(int64(diffSpan / 2))))
		to := from.Add(time.Second + time.Duration(rng.Int63n(int64(diffSpan/2))))
		target := recs[rng.Intn(len(recs))].id // stored, sometimes outside the catalog
		checkRankings(t, cat, db, shuffled, target, from, to)
	}

	// The tie round: markets with the same price series and no crossing or
	// outage tie on every key but the ID, adopted in ID order and in the
	// reverse, so a bounded scan meets each tie from both sides.
	tied, from, to := tiedRecords(t, cat)
	up := make([]int, len(tied))
	for i := range up {
		up[i] = i
	}
	down := slices.Clone(up)
	slices.Reverse(down)
	checkRankings(t, cat, loadRecords(tied, down, nil), loadRecords(tied, up, nil), tied[0].id, from, to)
}

// tiedRecords is the tie round's store: the us-west-2 Linux c3.large
// markets, one a zone, each holding the same hourly prices and nothing
// else. The
// price is one whose mean, as the store folds it, rounds below the price
// itself far enough to raise the advise score: a best case read from the
// window's price floor then lands just below the real score, within the
// advisor's margin, and only the margin keeps the smaller IDs, met after
// their twins, from being skipped.
func tiedRecords(t *testing.T, cat *market.Catalog) (recs []marketRecords, from, to time.Time) {
	t.Helper()
	const samples = 5*16 + 3 // sealed chunks and a tail
	from, to = t0, t0.Add(samples*time.Hour)
	var ids []market.SpotID
	for _, id := range cat.SpotMarkets() {
		if id.Region() == "us-west-2" && id.Product == market.ProductLinux && id.Type == "c3.large" {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, market.SpotID.Compare)
	od, err := cat.SpotODPrice(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	series := func(p float64) []store.PricePoint {
		ps := make([]store.PricePoint, samples)
		for i := range ps {
			ps[i] = store.PricePoint{At: from.Add(time.Duration(i) * time.Hour), Price: p}
		}
		return ps
	}
	// docs/advisor.md's score with full availability and no crossing.
	score := func(mean float64) float64 { return 100 * (0.45*max(0, min(1, 1-mean/od)) + 0.30*1 + 0.25*1) }
	price := 0.0
	for i := 1; i < 1000 && price == 0; i++ {
		p := od * float64(i) / 1000
		probe := store.New()
		for _, pt := range series(p) {
			probe.RecordPrice(ids[0], pt)
		}
		if mean := probe.PriceStatsIn(ids[0], from, to).Mean; mean < p && score(mean) > score(p) {
			price = p
		}
	}
	if price == 0 {
		t.Fatal("no price whose folded mean rounds the score up")
	}
	for _, id := range ids {
		recs = append(recs, marketRecords{id: id, prices: series(price)})
	}
	return recs, from, to
}

// checkRankings holds every ranking of both stores, which hold the same
// records, to the naive oracle over the first, for n = 1, 10 and beyond
// any scope.
func checkRankings(t *testing.T, cat *market.Catalog, db, shuffled *store.Store, target market.SpotID, from, to time.Time) {
	t.Helper()
	engines := []*Engine{NewEngine(db, cat), NewEngine(shuffled, cat)}
	for _, e := range engines {
		e.SetCaching(false)
	}
	scopes := []struct {
		region  market.Region
		product market.Product
	}{
		{"", ""}, {"us-east-1", ""}, {"", market.ProductWindows}, {"sa-east-1", market.ProductLinux},
		{"eu-west-1", ""}, {"", "BeOS"}, {"mars-1", ""}, // in the catalog but empty; not in the catalog
	}
	advised := []api.AdviseConstraints{
		{},
		{Regions: []string{"us-east-1"}},
		{Regions: []string{"us-west-2", "sa-east-1"}},
		{Products: []string{"Windows", "SUSE Linux"}},
		{Regions: []string{"us-east-1", "us-west-2"}, Products: []string{"Linux/UNIX"}, MinVCPU: 4},
		{MaxPricePerHour: 0.2, MaxInterruptionRate: 0.05},
		{InstanceTypes: "c3.*"},
	}
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", what, got, want)
		}
	}
	for _, n := range []int{1, 10, 1 << 20} {
		for ei, e := range engines {
			for _, sc := range scopes {
				what := fmt.Sprintf("engine %d %q/%q n=%d [%v, %v]", ei, sc.region, sc.product, n, from, to)
				stable, err := e.TopStableMarkets(sc.region, sc.product, n, from, to)
				if err != nil {
					t.Fatal(err)
				}
				check("stable "+what, stable, oracleStable(db, cat, sc.region, sc.product, n, from, to))
				volatile, err := e.TopVolatileMarkets(sc.region, sc.product, n, from, to)
				if err != nil {
					t.Fatal(err)
				}
				check("volatile "+what, volatile, oracleVolatile(db, sc.region, sc.product, n, from, to))
			}
			for _, m := range []market.SpotID{target, {Zone: "a", Type: "c3.large", Product: market.ProductLinux}} {
				fallback, err := e.RecommendFallback(m, n, from, to)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("fallback engine %d %v n=%d", ei, m, n), fallback, oracleFallback(db, cat, m, n, from, to))
			}
			for _, wire := range advised {
				wire.N = min(n, advisor.MaxN)
				c, err := e.Advisor().Normalize(wire)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("advise engine %d %+v", ei, wire), e.Advisor().Advise(c, from, to), oracleAdvise(db, cat, c, from, to))
			}
		}
	}
}
