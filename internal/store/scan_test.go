package store

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
)

// scopeShapes returns every scope a store's markets fall in: everything,
// each region, each product, each (region, product).
func scopeShapes(s *Store) []rollupScope {
	seen := map[rollupScope]bool{{}: true}
	for _, id := range s.Markets() {
		seen[rollupScope{region: id.Region()}] = true
		seen[rollupScope{product: id.Product}] = true
		seen[rollupScope{region: id.Region(), product: id.Product}] = true
	}
	var out []rollupScope
	for sc := range seen {
		out = append(out, sc)
	}
	return out
}

// scanMembers returns the markets a scan of the scope visits, sorted,
// failing the test if one is visited twice.
func scanMembers(t *testing.T, s *Store, sc rollupScope) []string {
	t.Helper()
	var out []string
	s.ScanScope(sc.region, sc.product, func(v MarketView) { out = append(out, v.Market().String()) })
	sort.Strings(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Errorf("scan of %+v visited %s twice", sc, out[i])
		}
	}
	return out
}

// assertScopeIndex checks the scope index against the shard list: every
// scope shape's scan visits exactly the scope's markets, and a view's
// folds are the per-market reads.
func assertScopeIndex(t *testing.T, s *Store) {
	t.Helper()
	from, to := persistBase.Add(-time.Hour), persistBase.Add(40*time.Hour)
	for _, sc := range scopeShapes(s) {
		var want []string
		for _, id := range s.Markets() {
			if (sc.region == "" || id.Region() == sc.region) && (sc.product == "" || id.Product == sc.product) {
				want = append(want, id.String())
			}
		}
		sort.Strings(want)
		if got := scanMembers(t, s, sc); !reflect.DeepEqual(got, want) {
			t.Errorf("scan of %+v visited %v, want %v", sc, got, want)
		}
	}
	type folds struct {
		cs       CrossingStats
		od, spot time.Duration
		ps       PriceWindowStats
		watches  int
		held     time.Duration
	}
	w := WindowOf(from, to)
	s.ScanScope("", "", func(v MarketView) {
		var got, want folds
		id := v.Market()
		got.cs, want.cs = v.CrossingStats(w), s.CrossingStatsFor(id, from, to)
		got.od, want.od = v.OutageOverlap(ProbeOnDemand, w), s.OutageOverlap(id, ProbeOnDemand, from, to)
		got.spot, want.spot = v.OutageOverlap(ProbeSpot, w), s.OutageOverlap(id, ProbeSpot, from, to)
		got.ps, want.ps = v.PriceStats(w), s.PriceStatsIn(id, from, to)
		got.watches, got.held = v.RevocationStats(w)
		for _, rv := range s.RevocationsFor(id, from, to) {
			want.watches++
			want.held += rv.Held
		}
		if got != want {
			t.Errorf("view of %v folds %+v, per-market reads %+v", id, got, want)
		}
	})
}

func TestScanScopeResolvesEveryScopeShape(t *testing.T) {
	s := New()
	appendWorkload(s, 8, 12)
	win := market.SpotID{Zone: "eu-west-1b", Type: "m3.large", Product: market.ProductWindows}
	// Out of time order: the rounds at hours 2 and 17 go back in time and
	// are refused, and the market joins its scopes once, with hour 30.
	for _, h := range []int{30, 2, 17} {
		at := persistBase.Add(time.Duration(h) * time.Hour)
		s.AppendSpike(SpikeEvent{At: at, Market: win, Ratio: 1 + float64(h)})
		s.RecordPrice(win, PricePoint{At: at, Price: float64(h)})
		s.AppendRevocation(RevocationRecord{At: at, Market: win, Held: time.Duration(h) * time.Minute})
	}
	if got := s.Generation(win); got != 3 {
		t.Fatalf("%v holds %d records, want the 3 of hour 30", win, got)
	}
	assertScopeIndex(t, s)
	if got := scanMembers(t, s, rollupScope{region: "mars-1"}); got != nil {
		t.Errorf("scan of an unknown region visited %v", got)
	}
}

// TestRecoveredScopeIndex: a store recovered from a snapshot plus WAL —
// with a market whose only records are in the WAL — indexes the same scope
// members as the store the appends built.
func TestRecoveredScopeIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 6, 10)
	if err := s.Persister().Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	late := market.SpotID{Zone: "sa-east-1a", Type: "m3.large", Product: market.ProductSUSE}
	s.AppendSpike(SpikeEvent{At: persistBase, Market: late, Ratio: 2})
	s.AppendProbe(ProbeRecord{At: persistBase.Add(24 * time.Hour), Market: persistMarket(0), Kind: ProbeSpot, Rejected: true})
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.Persister().Abandon()

	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Persister().Close()
	assertScopeIndex(t, re)
	for _, sc := range scopeShapes(s) {
		if got, want := scanMembers(t, re, sc), scanMembers(t, s, sc); !reflect.DeepEqual(got, want) {
			t.Errorf("recovered scan of %+v visited %v, the appended store %v", sc, got, want)
		}
	}
}

// TestScanDuringAdoption runs scans of every scope shape, folds included,
// while writers adopt new markets and append to adopted ones. Under -race
// this is the scope index's concurrency contract; afterwards the index
// holds every market exactly once.
func TestScanDuringAdoption(t *testing.T) {
	const writers, marketsPerWriter, perMarket = 4, 24, 20
	s := New()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for m := 0; m < marketsPerWriter; m++ {
				id := concMarket(w*marketsPerWriter + m)
				if m%2 == 1 {
					id.Zone, id.Product = "eu-west-1a", market.ProductWindows
				}
				for i := 0; i < perMarket; i++ {
					at := persistBase.Add(time.Duration(i) * time.Minute)
					s.AppendSpike(SpikeEvent{At: at, Market: id, Ratio: 1.5})
					s.RecordPrice(id, PricePoint{At: at, Price: 0.1})
					s.AppendProbe(ProbeRecord{At: at, Market: id, Kind: ProbeOnDemand, Rejected: i%2 == 0})
					s.AppendRevocation(RevocationRecord{At: at, Market: id, Held: time.Minute})
				}
			}
		}(w)
	}
	var scanners sync.WaitGroup
	from, to := persistBase, persistBase.Add(time.Hour)
	for _, sc := range []rollupScope{{}, {region: "us-east-1"}, {product: market.ProductWindows}, {region: "eu-west-1", product: market.ProductWindows}} {
		scanners.Add(1)
		go func(sc rollupScope) {
			defer scanners.Done()
			for {
				seen := make(map[market.SpotID]bool)
				s.ScanScope(sc.region, sc.product, func(v MarketView) {
					if seen[v.Market()] {
						t.Errorf("scan of %+v visited %v twice", sc, v.Market())
					}
					seen[v.Market()] = true
					w := WindowOf(from, to)
					cs := v.CrossingStats(w)
					ps := v.PriceStats(w)
					watches, _ := v.RevocationStats(w)
					v.OutageOverlap(ProbeOnDemand, w)
					// One lock hold: every family was appended in step.
					if d := cs.Crossings - ps.Samples; d < 0 || d > 1 || cs.Crossings-watches < 0 || cs.Crossings-watches > 1 {
						t.Errorf("view of %v is not one cut: %d crossings, %d prices, %d watches", v.Market(), cs.Crossings, ps.Samples, watches)
					}
				})
				select {
				case <-done:
					return
				default:
				}
			}
		}(sc)
	}
	wg.Wait()
	close(done)
	scanners.Wait()
	assertScopeIndex(t, s)
	if got := len(scanMembers(t, s, rollupScope{})); got != writers*marketsPerWriter {
		t.Errorf("index holds %d markets, want %d", got, writers*marketsPerWriter)
	}
}
