package query

import (
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// mktEU lives outside the us-east-1 scope of the cached queries below.
var mktEU = market.SpotID{Zone: "eu-west-1a", Type: "c3.2xlarge", Product: market.ProductLinux}

// TestStableCachePerShardInvalidation is the store-generation test: a
// cached region-scoped ranking survives appends to out-of-scope shards
// and is invalidated — with a correct recomputation — by an append to an
// in-scope shard.
func TestStableCachePerShardInvalidation(t *testing.T) {
	e, db := seededEngine(t)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	from, to := t0, t0.Add(24*time.Hour)

	query := func() []StableMarket {
		t.Helper()
		rows, err := e.TopStableMarkets("us-east-1", "", 1000, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	crossingsOf := func(rows []StableMarket, id market.SpotID) int {
		for _, r := range rows {
			if r.Market == id {
				return r.Crossings
			}
		}
		t.Fatalf("market %v missing from ranking", id)
		return 0
	}

	first := query()
	if hits, misses := e.CacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("first query hits/misses = %d/%d, want 0/1", hits, misses)
	}
	second := query()
	if hits, _ := e.CacheStats(); hits != 1 {
		t.Errorf("identical repeat did not hit the cache")
	}
	// Cached results are shared by reference: same backing array.
	if &first[0] != &second[0] {
		t.Errorf("repeat returned a different slice — cache missed")
	}

	// Appends to shards outside the us-east-1 scope must not invalidate.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktEU, Ratio: 3})
	db.AppendProbe(store.ProbeRecord{At: t0.Add(2 * time.Hour), Market: mktEU, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	query()
	if hits, _ := e.CacheStats(); hits != 2 {
		t.Errorf("out-of-scope append invalidated the cache (hits = %d, want 2)", hits)
	}

	// An in-scope append invalidates and the recomputation sees it.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(3 * time.Hour), Market: mktA, Ratio: 4})
	third := query()
	if hits, misses := e.CacheStats(); hits != 2 || misses != 2 {
		t.Errorf("in-scope append: hits/misses = %d/%d, want 2/2", hits, misses)
	}
	if got := crossingsOf(third, mktA); got != 2 {
		t.Errorf("recomputed crossings = %d, want 2", got)
	}
}

// TestSummaryCacheGeneration: identical summary queries hit; any append
// anywhere invalidates (summary scope is the whole store); a different
// `now` is a different key.
func TestSummaryCacheGeneration(t *testing.T) {
	e, db := seededEngine(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	now := t0.Add(24 * time.Hour)

	e.Summary(now)
	e.Summary(now)
	if hits, misses := e.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("summary hits/misses = %d/%d, want 1/1", hits, misses)
	}

	e.Summary(now.Add(time.Hour)) // a different clock is a different key
	if hits, misses := e.CacheStats(); hits != 1 || misses != 2 {
		t.Errorf("different-now summary hits/misses = %d/%d, want 1/2", hits, misses)
	}
	e.Summary(now.Add(time.Hour)) // and a repeat at the new instant hits
	if hits, _ := e.CacheStats(); hits != 2 {
		t.Errorf("repeat at the new instant did not hit")
	}

	hitsBefore, _ := e.CacheStats()
	db.AppendProbe(store.ProbeRecord{At: t0.Add(7 * time.Hour), Market: mktEU, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	sums := e.Summary(now)
	if hits, _ := e.CacheStats(); hits != hitsBefore {
		t.Errorf("append did not invalidate the summary cache")
	}
	regions := make(map[market.Region]bool)
	for _, s := range sums {
		regions[s.Region] = true
	}
	if !regions["eu-west-1"] {
		t.Errorf("recomputed summary missing the appended region: %+v", sums)
	}
}

// TestVolatileCachePerShardInvalidation: the volatility ranking reuses a
// cached result across out-of-scope appends and recomputes — including the
// revocation enrichment — after an in-scope append of any record kind.
func TestVolatileCachePerShardInvalidation(t *testing.T) {
	e, db := seededEngine(t)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	from, to := t0, t0.Add(24*time.Hour)

	query := func() []VolatileMarket {
		t.Helper()
		rows, err := e.TopVolatileMarkets("us-east-1", "", 10, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	first := query()
	second := query()
	if hits, misses := e.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("volatile hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if &first[0] != &second[0] {
		t.Errorf("repeat returned a different slice — cache missed")
	}

	// Out-of-scope append keeps the entry valid.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktEU, Ratio: 3})
	query()
	if hits, _ := e.CacheStats(); hits != 2 {
		t.Errorf("out-of-scope append invalidated the volatile cache")
	}

	// An in-scope revocation invalidates, and the recomputation carries it.
	db.AppendRevocation(store.RevocationRecord{At: t0.Add(3 * time.Hour), Market: mktA, Bid: 1, Held: 2 * time.Hour})
	third := query()
	if hits, misses := e.CacheStats(); hits != 2 || misses != 2 {
		t.Errorf("in-scope revocation: hits/misses = %d/%d, want 2/2", hits, misses)
	}
	if len(third) == 0 || third[0].Market != mktA || third[0].Watches != 1 || third[0].MeanHeld != 2*time.Hour {
		t.Errorf("recomputed volatile row = %+v, want mktA with one 2h watch", third)
	}
}

// TestUnavailabilityCachePerMarket: per-market unavailability is keyed by
// the market's own shard generation — appends to other markets leave it
// cached; an append to the market invalidates it.
func TestUnavailabilityCachePerMarket(t *testing.T) {
	e, db := seededEngine(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	from, to := t0, t0.Add(24*time.Hour)

	for i := 0; i < 2; i++ {
		if _, err := e.ODUnavailability(mktA, from, to); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := e.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("unavailability hits/misses = %d/%d, want 1/1", hits, misses)
	}

	// A different market or contract kind is a different key.
	if _, err := e.SpotUnavailability(mktA, from, to); err != nil {
		t.Fatal(err)
	}
	db.AppendProbe(store.ProbeRecord{At: t0.Add(8 * time.Hour), Market: mktB, Kind: store.ProbeOnDemand})
	if _, err := e.ODUnavailability(mktA, from, to); err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.CacheStats(); hits != 2 {
		t.Errorf("append to another market invalidated the entry")
	}

	// Closing the outage earlier via a new in-market append changes the
	// answer; the stale fraction must not be served.
	db.AppendProbe(store.ProbeRecord{At: t0.Add(12 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	got, err := e.ODUnavailability(mktA, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0.25 {
		t.Errorf("recomputed unavailability = %v, want > 0.25 after the new outage", got)
	}
}

// TestSetCachingDisables: with caching off the engine recomputes every
// time and reports zero stats.
func TestSetCachingDisables(t *testing.T) {
	e, db := seededEngine(t)
	e.SetCaching(false)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	from, to := t0, t0.Add(24*time.Hour)
	for i := 0; i < 3; i++ {
		if _, err := e.TopStableMarkets("us-east-1", "", 10, from, to); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("disabled cache reported stats %d/%d", hits, misses)
	}
	e.SetCaching(true)
	e.Summary(t0)
	e.Summary(t0)
	if hits, _ := e.CacheStats(); hits != 1 {
		t.Errorf("re-enabled cache did not serve hits")
	}
}
