package store

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
)

// rollupMarkets spans three regions, two products, and several zones so
// every rollup granularity has more than one shard feeding it.
var rollupMarkets = []market.SpotID{
	{Zone: "us-east-1a", Type: "c3.large", Product: market.ProductLinux},
	{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductWindows},
	{Zone: "us-east-1d", Type: "c3.xlarge", Product: market.ProductLinux},
	{Zone: "us-east-1d", Type: "r3.large", Product: market.ProductLinux},
	{Zone: "eu-west-1a", Type: "c3.large", Product: market.ProductLinux},
	{Zone: "eu-west-1b", Type: "c3.large", Product: market.ProductWindows},
	{Zone: "sa-east-1a", Type: "m3.medium", Product: market.ProductLinux},
}

// recomputeRegion rebuilds a region's aggregates from scratch out of the
// store's exported record iteration — fully independent of the rollup
// fold, so any drift between the incremental and recomputed state is a
// bug in one of them.
func recomputeRegion(s *Store, region market.Region, now time.Time) ScopeAggregates {
	out := ScopeAggregates{Region: region}
	for _, id := range s.Markets() {
		if id.Region() == region {
			out.Markets++
		}
	}
	for _, r := range s.Probes() {
		if r.Market.Region() != region {
			continue
		}
		out.TotalProbes++
		switch r.Kind {
		case ProbeOnDemand:
			out.ODProbes++
			if r.Rejected {
				out.ODRejected++
			}
		case ProbeSpot:
			out.SpotProbes++
			if r.Rejected {
				out.SpotRejected++
			}
		}
	}
	for _, e := range s.Spikes() {
		if e.Market.Region() != region {
			continue
		}
		out.Spikes++
		if e.Ratio >= 1 {
			out.SpikesAboveOD++
		}
	}
	for _, o := range s.Outages() {
		if o.Market.Region() != region {
			continue
		}
		switch o.Kind {
		case ProbeOnDemand:
			out.ODOutages++
			out.ODOutageDur += o.Duration(now)
		case ProbeSpot:
			out.SpotOutages++
		}
	}
	return out
}

// regionAggregate returns region's entry of RegionAggregates(now).
func regionAggregate(t *testing.T, s *Store, region market.Region, now time.Time) ScopeAggregates {
	t.Helper()
	for _, agg := range s.RegionAggregates(now) {
		if agg.Region == region {
			return agg
		}
	}
	t.Fatalf("region %q has no rollup", region)
	return ScopeAggregates{}
}

// scopeRecords counts every record of any kind inside a scope — what the
// scope's generation must equal.
func scopeRecords(s *Store, region market.Region, product market.Product) uint64 {
	in := func(id market.SpotID) bool {
		if region != "" && id.Region() != region {
			return false
		}
		return product == "" || id.Product == product
	}
	var n uint64
	for _, r := range s.Probes() {
		if in(r.Market) {
			n++
		}
	}
	for _, e := range s.Spikes() {
		if in(e.Market) {
			n++
		}
	}
	for _, r := range allBidSpreads(s) {
		if in(r.Market) {
			n++
		}
	}
	for _, r := range allRevocations(s) {
		if in(r.Market) {
			n++
		}
	}
	for _, id := range s.PricedMarkets() {
		if in(id) {
			n += uint64(len(s.Prices(id)))
		}
	}
	return n
}

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// scopesOf enumerates every rollup granularity touched by the test
// markets: global, each region, each (region, product), each product.
func scopesOf(ids []market.SpotID) [][2]string {
	seen := map[[2]string]bool{{"", ""}: true}
	for _, id := range ids {
		seen[[2]string{string(id.Region()), ""}] = true
		seen[[2]string{string(id.Region()), string(id.Product)}] = true
		seen[[2]string{"", string(id.Product)}] = true
	}
	out := make([][2]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out
}

// TestRollupConsistencyRandomized interleaves concurrent appends of every
// record kind across markets in several regions and products, then asserts
// that each region's aggregates and each rollup scope's generation equal a
// from-scratch recomputation over the shard contents. Run under -race in CI, this is
// the consistency contract of the rollup layer: no append may drift the
// hierarchy from its shards.
func TestRollupConsistencyRandomized(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	const goroutines = 8
	const opsPer = 400

	// Each market's clock moves forward by at least a batch's span per
	// append, so a round goes back in time only when another goroutine's
	// later one lands between its stamp and its append: refused, it must
	// leave the rollups as they were.
	clocks := make(map[market.SpotID]*atomic.Int64)
	for _, id := range rollupMarkets {
		clocks[id] = new(atomic.Int64)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0xda7a))
			for i := 0; i < opsPer; i++ {
				id := rollupMarkets[rng.IntN(len(rollupMarkets))]
				at := base.Add(time.Duration(clocks[id].Add(int64(6+rng.IntN(60)))) * time.Second)
				switch rng.IntN(10) {
				case 0, 1, 2, 3: // probes dominate real ingest
					kind := ProbeOnDemand
					if rng.IntN(2) == 0 {
						kind = ProbeSpot
					}
					s.AppendProbe(ProbeRecord{
						At: at, Market: id, Kind: kind,
						Trigger:  TriggerSpike,
						Rejected: rng.IntN(3) == 0,
						Cost:     rng.Float64(),
					})
				case 4, 5: // batched probes, the monitor flush shape
					n := 1 + rng.IntN(6)
					batch := make([]ProbeRecord, n)
					for j := range batch {
						batch[j] = ProbeRecord{
							At: at.Add(time.Duration(j) * time.Second), Market: id,
							Kind: ProbeOnDemand, Rejected: rng.IntN(4) == 0, Cost: 0.1,
						}
					}
					s.AppendProbes(batch)
				case 6:
					s.AppendSpike(SpikeEvent{At: at, Market: id, Price: rng.Float64() * 3, Ratio: rng.Float64() * 3})
				case 7:
					s.RecordPrice(id, PricePoint{At: at, Price: rng.Float64()})
				case 8:
					s.AppendRevocation(RevocationRecord{At: at, Market: id, Bid: 1, Held: time.Hour})
				default:
					s.AppendBidSpread(BidSpreadRecord{At: at, Market: id, Published: 1, Intrinsic: 2, Attempts: 3})
				}
			}
		}(g)
	}
	wg.Wait()

	now := base.Add(48 * time.Hour)
	regions := s.RegionAggregates(now)
	if len(regions) != 3 {
		t.Fatalf("got %d region entries, want 3", len(regions))
	}
	for _, got := range regions {
		if want := recomputeRegion(s, got.Region, now); got != want {
			t.Errorf("region %q:\n rollup    %+v\n recompute %+v", got.Region, got, want)
		}
	}
	for _, scope := range scopesOf(rollupMarkets) {
		region, product := market.Region(scope[0]), market.Product(scope[1])
		if gen, want := s.GenerationOfScope(region, product), scopeRecords(s, region, product); gen != want {
			t.Errorf("scope (%q,%q): generation %d != %d records", region, product, gen, want)
		}
	}
	if got, want := s.GlobalGeneration(), s.GenerationOfScope("", ""); got != want {
		t.Errorf("GlobalGeneration %d != global scope generation %d", got, want)
	}
}

// TestRollupOpenOutageDuration pins the open-outage arithmetic: an outage
// with no closing probe is measured to the asked-about instant, exactly.
func TestRollupOpenOutageDuration(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 123456789, time.UTC)
	id := rollupMarkets[0]
	s.AppendProbe(ProbeRecord{At: base, Market: id, Kind: ProbeOnDemand, Rejected: true, Code: "x"})

	now := base.Add(90*time.Minute + 111*time.Nanosecond)
	agg := regionAggregate(t, s, id.Region(), now)
	if want := now.Sub(base); agg.ODOutageDur != want {
		t.Errorf("open outage duration = %v, want %v", agg.ODOutageDur, want)
	}
	// Closing the outage freezes the duration.
	end := base.Add(30 * time.Minute)
	s.AppendProbe(ProbeRecord{At: end, Market: id, Kind: ProbeOnDemand})
	agg = regionAggregate(t, s, id.Region(), now.Add(time.Hour))
	if want := end.Sub(base); agg.ODOutageDur != want {
		t.Errorf("closed outage duration = %v, want %v", agg.ODOutageDur, want)
	}
}

// TestRegionAggregatesOrdering: region-level entries come back in region
// order, one per region.
func TestRegionAggregatesOrdering(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	for _, id := range rollupMarkets {
		s.AppendProbe(ProbeRecord{At: base, Market: id, Kind: ProbeOnDemand})
	}
	regions := s.RegionAggregates(base)
	for i := 1; i < len(regions); i++ {
		if regions[i-1].Region >= regions[i].Region {
			t.Fatalf("region aggregates out of order: %v >= %v", regions[i-1].Region, regions[i].Region)
		}
	}
	if len(regions) != 3 {
		t.Fatalf("got %d region entries, want 3", len(regions))
	}
}

// TestPriceStatsInMatchesPricesIn: the in-shard fold must agree with the
// copy-then-scan path it replaces. The prices are offered out of time
// order: only those past the newest one land (hours 5, 9, 10 and 11), the
// rest are refused.
func TestPriceStatsInMatchesPricesIn(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	id := rollupMarkets[0]
	offsets := []int{5, 2, 9, 1, 7, 3, 8, 0, 6, 4, 10, 11}
	for i, off := range offsets {
		s.RecordPrice(id, PricePoint{At: base.Add(time.Duration(off) * time.Hour), Price: float64(i%4) + 0.5})
	}
	from, to := base.Add(2*time.Hour), base.Add(10*time.Hour)
	st := s.PriceStatsIn(id, from, to)
	pts := s.PricesIn(id, from, to)
	if st.Samples != 3 || len(pts) != 3 {
		t.Fatalf("samples = %d over %d prices, want the 3 that landed in the window", st.Samples, len(pts))
	}
	min, max, sum := pts[0].Price, pts[0].Price, 0.0
	for _, p := range pts {
		if p.Price < min {
			min = p.Price
		}
		if p.Price > max {
			max = p.Price
		}
		sum += p.Price
	}
	if st.Min != min || st.Max != max || !floatsClose(st.Mean, sum/float64(len(pts))) {
		t.Errorf("stats %+v, want min=%v mean=%v max=%v", st, min, sum/float64(len(pts)), max)
	}
	if empty := s.PriceStatsIn(rollupMarkets[1], from, to); empty.Samples != 0 {
		t.Errorf("missing market stats = %+v, want zero", empty)
	}
}
