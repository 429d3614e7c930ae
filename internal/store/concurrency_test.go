package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
)

// concMarket builds the i-th synthetic market of the concurrency tests.
func concMarket(i int) market.SpotID {
	return market.SpotID{
		Zone:    market.Zone(fmt.Sprintf("us-east-1%c", 'a'+i%4)),
		Type:    market.InstanceType(fmt.Sprintf("c%d.%dxlarge", i/8+1, i%8+1)),
		Product: market.ProductLinux,
	}
}

// TestConcurrentShardedWrites drives concurrent appenders across many
// markets while readers hammer the merged global views, then asserts the
// merged views stay timestamp-ordered and every count is exact. Run under
// -race this is the store's concurrency contract.
func TestConcurrentShardedWrites(t *testing.T) {
	const (
		writers          = 16
		marketsPerWriter = 4
		perMarket        = 200
	)
	s := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: exercise merged views, per-market lookups, and aggregates
	// while writes are in flight. Their results are unasserted (the data
	// is racing); the race detector and ordering invariants below are the
	// point.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				probes := s.Probes()
				for i := 1; i < len(probes); i++ {
					if probes[i].At.Before(probes[i-1].At) {
						t.Error("Probes() not timestamp-ordered during concurrent writes")
						return
					}
				}
				outages := s.Outages()
				for i := 1; i < len(outages); i++ {
					if outages[i].Start.Before(outages[i-1].Start) {
						t.Error("Outages() not ordered by start during concurrent writes")
						return
					}
				}
				s.SpikeCrossingsWhere(time.Time{}, time.Now().Add(time.Hour), nil)
				s.RegionAggregates(time.Now())
				s.ProbeCount()
				// Find-only reads, and outage walks of the probes, racing
				// the markets' first writes and their later ones.
				for i := 0; i < writers*marketsPerWriter; i++ {
					s.Generation(concMarket(i))
					s.OutagesFor(concMarket(i), ProbeOnDemand)
					s.OutageOverlap(concMarket(i), ProbeOnDemand, time.Time{}, time.Now())
				}
			}
		}()
	}

	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	var totalRejected atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for m := 0; m < marketsPerWriter; m++ {
				id := concMarket(w*marketsPerWriter + m)
				app := s.Appender(id)
				for i := 0; i < perMarket; i++ {
					at := base.Add(time.Duration(i) * time.Minute)
					rejected := i%10 == 3 || i%10 == 4 // two-probe outages
					if rejected {
						totalRejected.Add(1)
					}
					app.AppendProbes([]ProbeRecord{{
						At: at, Market: id, Kind: ProbeOnDemand,
						Trigger: TriggerSpike, TriggerMarket: id, Rejected: rejected, Cost: 0.25,
					}})
					app.AppendSpike(SpikeEvent{At: at, Market: id, Ratio: 0.5 + float64(i%4)})
					app.RecordPrice(PricePoint{At: at, Price: float64(i)})
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	const markets = writers * marketsPerWriter
	const total = markets * perMarket

	if got := s.ProbeCount(); got != total {
		t.Errorf("ProbeCount = %d, want %d", got, total)
	}
	if got := len(s.Probes()); got != total {
		t.Errorf("len(Probes()) = %d, want %d", got, total)
	}
	if got := len(s.Spikes()); got != total {
		t.Errorf("len(Spikes()) = %d, want %d", got, total)
	}
	// One shard and one dictionary entry per market written: the index
	// holds no duplicate and the racing reads inserted nothing.
	if got, dict := len(s.Markets()), len(s.dicts.markets.ids); got != markets || dict != markets {
		t.Errorf("Markets = %d, dictionary entries = %d, want %d and %d", got, dict, markets, markets)
	}

	// Merged global views must be timestamp-ordered.
	probes := s.Probes()
	for i := 1; i < len(probes); i++ {
		if probes[i].At.Before(probes[i-1].At) {
			t.Fatalf("Probes()[%d] at %v precedes [%d] at %v", i, probes[i].At, i-1, probes[i-1].At)
		}
	}
	outages := s.Outages()
	for i := 1; i < len(outages); i++ {
		if outages[i].Start.Before(outages[i-1].Start) {
			t.Fatalf("Outages() not ordered by start at %d", i)
		}
	}

	// Per-market invariants: every market got exactly its writer's
	// records, outage derivation matched the rejected pattern (indexes
	// 3,4 rejected per block of 10 -> one outage per block), and the
	// aggregates agree with the logs.
	window := base.Add(time.Duration(perMarket) * time.Minute)
	for i := 0; i < markets; i++ {
		id := concMarket(i)
		if got := len(s.Prices(id)); got != perMarket {
			t.Fatalf("Prices(%v) = %d, want %d", id, got, perMarket)
		}
		if got := len(s.SpikesFor(id, base, window)); got != perMarket {
			t.Fatalf("SpikesFor(%v) = %d, want %d", id, got, perMarket)
		}
		if got := len(s.OutagesFor(id, ProbeOnDemand)); got != perMarket/10 {
			t.Fatalf("OutagesFor(%v) = %d, want %d", id, got, perMarket/10)
		}
		// Each outage spans minutes 3..5 of its block: 2 minutes.
		if got, want := s.OutageOverlap(id, ProbeOnDemand, base, window), time.Duration(perMarket/10)*2*time.Minute; got != want {
			t.Fatalf("OutageOverlap(%v) = %v, want %v", id, got, want)
		}
	}

	rejected := s.ProbesWhere(func(r ProbeRecord) bool { return r.Rejected })
	if int64(len(rejected)) != totalRejected.Load() {
		t.Errorf("rejected probes = %d, want %d", len(rejected), totalRejected.Load())
	}

	var aggProbes, aggSpikes, aggCrossings int
	for _, a := range s.RegionAggregates(window) {
		aggProbes += a.TotalProbes
		aggSpikes += a.Spikes
		aggCrossings += a.SpikesAboveOD
	}
	if aggProbes != total || aggSpikes != total {
		t.Errorf("aggregate totals = %d probes %d spikes, want %d each", aggProbes, aggSpikes, total)
	}
	// Ratios cycle 0.5, 1.5, 2.5, 3.5: three of four cross the OD price.
	if want := total * 3 / 4; aggCrossings != want {
		t.Errorf("aggregate crossings = %d, want %d", aggCrossings, want)
	}
	for i := 0; i < markets; i++ {
		if got, want := s.CrossingStatsFor(concMarket(i), base, window), (CrossingStats{Crossings: perMarket * 3 / 4, MaxRatio: 3.5}); got != want {
			t.Fatalf("CrossingStatsFor(%v) = %+v, want %+v", concMarket(i), got, want)
		}
	}
}

// TestConcurrentReadersDuringWrites pins the weaker liveness property: a
// reader that starts mid-write always sees a prefix-consistent shard (no
// torn slices), including per-market window queries.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	s := New()
	id := concMarket(0)
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	done := make(chan struct{})
	go func() {
		defer close(done)
		app := s.Appender(id)
		for i := 0; i < 5000; i++ {
			app.AppendProbes([]ProbeRecord{{At: base.Add(time.Duration(i) * time.Second), Market: id, Kind: ProbeSpot, Cost: 0.01}})
		}
	}()
	for {
		probes := s.SpikesFor(id, base, base.Add(time.Hour))
		_ = probes
		outs := s.OutagesFor(id, ProbeSpot)
		_ = outs
		n := s.ProbeCount()
		if n > 5000 {
			t.Fatalf("ProbeCount overshot: %d", n)
		}
		select {
		case <-done:
			if got := s.ProbeCount(); got != 5000 {
				t.Fatalf("final ProbeCount = %d, want 5000", got)
			}
			return
		default:
		}
	}
}
