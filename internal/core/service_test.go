package core

import (
	"testing"
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
	"spotlight/internal/simtime"
	"spotlight/internal/store"
)

var (
	trigMkt = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	sibMkt  = market.SpotID{Zone: "us-east-1d", Type: "c3.8xlarge", Product: market.ProductLinux}
	xzMkt   = market.SpotID{Zone: "us-east-1a", Type: "c3.2xlarge", Product: market.ProductLinux}
)

// newService builds a service over the fake with test-friendly defaults.
func newService(t *testing.T, f *fakeProvider, cfg Config) (*Service, *store.Store) {
	t.Helper()
	db := store.New()
	// Default the periodic spot probing to a negligible rate so unit
	// tests only see the probes they script; tests that exercise the
	// round robin set their own rate.
	if cfg.SpotProbesPerDay == 0 {
		cfg.SpotProbesPerDay = 1
	}
	svc, err := New(f, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, db
}

func odPrice(t *testing.T, f *fakeProvider, m market.SpotID) float64 {
	t.Helper()
	p, err := f.cat.SpotODPrice(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	f := newFakeProvider()
	db := store.New()
	bad := []Config{
		{Threshold: -1},
		{SampleProb: 2},
		{SampleProb: -0.5},
		{Budget: -10},
		{SpotProbesPerDay: -5},
		{RevocationBid: -1},
	}
	for i, cfg := range bad {
		if _, err := New(f, db, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(f, db, Config{Regions: []market.Region{"atlantis-1"}}); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestSpikeTriggersProbe(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 1.5 // above the default 1x threshold
	svc, db := newService(t, f, Config{Regions: []market.Region{"us-east-1"}})

	svc.OnTick()

	if got := f.countRuns(trigMkt); got != 1 {
		t.Fatalf("RunInstance calls = %d, want 1", got)
	}
	probes := db.Probes()
	if len(probes) != 1 {
		t.Fatalf("probe records = %d, want 1", len(probes))
	}
	p := probes[0]
	if p.Trigger != store.TriggerSpike || p.Kind != store.ProbeOnDemand || p.Rejected {
		t.Errorf("probe = %+v", p)
	}
	if p.SpikeRatio < 1.4 || p.SpikeRatio > 1.6 {
		t.Errorf("SpikeRatio = %v, want ~1.5", p.SpikeRatio)
	}
	spikes := db.Spikes()
	if len(spikes) != 1 || !spikes[0].Probed {
		t.Errorf("spikes = %+v", spikes)
	}
	if svc.Stats().SpikesSeen != 1 || svc.Stats().ODProbes != 1 {
		t.Errorf("stats = %+v", svc.Stats())
	}
}

func TestNoRetriggerWhileAboveThreshold(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 2
	svc, db := newService(t, f, Config{Regions: []market.Region{"us-east-1"}})

	svc.OnTick()
	f.advance(5 * time.Minute)
	svc.OnTick() // still above: crossing already consumed
	if got := len(db.Spikes()); got != 1 {
		t.Fatalf("spikes = %d, want 1 (no re-trigger while above)", got)
	}

	// Dip below, then rise again: a second crossing.
	f.prices[trigMkt] = od * 0.5
	f.advance(5 * time.Minute)
	svc.OnTick()
	f.prices[trigMkt] = od * 3
	f.advance(5 * time.Minute)
	svc.OnTick()
	if got := len(db.Spikes()); got != 2 {
		t.Errorf("spikes = %d, want 2 after dip and re-spike", got)
	}
}

func TestSamplingProbabilityZero(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 2
	svc, db := newService(t, f, Config{
		Regions:    []market.Region{"us-east-1"},
		SampleProb: 0.000001, // ~never (0 means "default" in config)
	})
	svc.OnTick()
	if got := f.countRuns(trigMkt); got != 0 {
		t.Errorf("probes = %d, want 0 under p~0", got)
	}
	spikes := db.Spikes()
	if len(spikes) != 1 || spikes[0].Probed {
		t.Errorf("spike should be recorded unprobed: %+v", spikes)
	}
	if svc.Stats().SpikesSeen != 1 {
		t.Errorf("SpikesSeen = %d, want 1", svc.Stats().SpikesSeen)
	}
}

func TestCustomThreshold(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 1.5
	svc, db := newService(t, f, Config{
		Regions:   []market.Region{"us-east-1"},
		Threshold: 2.0,
	})
	svc.OnTick()
	if got := len(db.Spikes()); got != 0 {
		t.Fatalf("1.5x crossing fired under T=2: %d spikes", got)
	}
	f.prices[trigMkt] = od * 2.5
	f.advance(5 * time.Minute)
	svc.OnTick()
	if got := len(db.Spikes()); got != 1 {
		t.Errorf("2.5x crossing did not fire under T=2")
	}
}

func TestRejectionFansOutToRelatedMarkets(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 3
	f.odDown[trigMkt] = true
	f.odDown[sibMkt] = true // one sibling also out
	svc, db := newService(t, f, Config{Regions: []market.Region{"us-east-1"}})

	svc.OnTick()

	// Trigger probe + 4 same-zone siblings + 20 cross-zone family markets
	// + 1 cross od probe from the spot-side CNA? (no spot CNA scripted) = 25.
	if got := len(f.runCalls); got != 25 {
		t.Fatalf("RunInstance calls = %d, want 25 (trigger + 24 related)", got)
	}
	var sameZone, otherZone, spikes, crosses int
	for _, p := range db.Probes() {
		if p.Kind != store.ProbeOnDemand {
			continue
		}
		switch p.Trigger {
		case store.TriggerSpike:
			spikes++
		case store.TriggerRelatedSameZone:
			sameZone++
			if p.TriggerMarket != trigMkt {
				t.Errorf("related probe carries wrong trigger market %v", p.TriggerMarket)
			}
			if p.SpikeRatio < 2.9 || p.SpikeRatio > 3.1 {
				t.Errorf("related probe lost the trigger spike ratio: %v", p.SpikeRatio)
			}
		case store.TriggerRelatedOtherZone:
			otherZone++
		case store.TriggerCross:
			crosses++
		}
	}
	if spikes != 1 || sameZone != 4 || otherZone != 20 {
		t.Errorf("probe breakdown: spike=%d sameZone=%d otherZone=%d", spikes, sameZone, otherZone)
	}
	// Both the trigger market and the scripted sibling must be in outage.
	rejected := db.ProbesWhere(func(r store.ProbeRecord) bool {
		return r.Rejected && r.Kind == store.ProbeOnDemand
	})
	if len(rejected) != 2 {
		t.Errorf("rejected od probes = %d, want 2 (trigger + sibling)", len(rejected))
	}
	// The cross spot probe on the trigger market must exist (§5.4).
	spotCross := db.ProbesWhere(func(r store.ProbeRecord) bool {
		return r.Kind == store.ProbeSpot && r.Trigger == store.TriggerCross && r.Market == trigMkt
	})
	if len(spotCross) != 1 {
		t.Errorf("cross spot probes on trigger market = %d, want 1", len(spotCross))
	}
}

func TestFamilyProbingDisabled(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 3
	f.odDown[trigMkt] = true
	svc, _ := newService(t, f, Config{
		Regions:              []market.Region{"us-east-1"},
		DisableFamilyProbing: true,
	})
	svc.OnTick()
	if got := len(f.runCalls); got != 1 {
		t.Errorf("RunInstance calls = %d, want 1 with family probing off", got)
	}
}

func TestRecheckUntilRecovery(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 3
	f.odDown[trigMkt] = true
	svc, db := newService(t, f, Config{
		Regions:              []market.Region{"us-east-1"},
		RecheckInterval:      5 * time.Minute,
		DisableFamilyProbing: true,
	})
	svc.OnTick() // detection
	if got := f.countRuns(trigMkt); got != 1 {
		t.Fatalf("initial probes = %d, want 1", got)
	}

	f.advance(5 * time.Minute)
	svc.OnTick() // recheck while still down
	if got := f.countRuns(trigMkt); got != 2 {
		t.Fatalf("probes after recheck = %d, want 2", got)
	}

	f.odDown[trigMkt] = false
	f.advance(5 * time.Minute)
	svc.OnTick() // recovery recheck
	if got := f.countRuns(trigMkt); got != 3 {
		t.Fatalf("probes after recovery = %d, want 3", got)
	}
	outs := db.OutagesFor(trigMkt, store.ProbeOnDemand)
	if len(outs) != 1 {
		t.Fatalf("outages = %d, want 1", len(outs))
	}
	if outs[0].End.IsZero() {
		t.Error("outage not closed after recovery probe")
	}
	if got := outs[0].End.Sub(outs[0].Start); got != 10*time.Minute {
		t.Errorf("detected outage duration = %v, want 10m", got)
	}

	// After recovery the market leaves the recheck schedule.
	f.advance(5 * time.Minute)
	svc.OnTick()
	if got := f.countRuns(trigMkt); got != 3 {
		t.Errorf("probe after recovery issued: %d calls", got)
	}
}

func TestBudgetSuppressesProbes(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 2
	svc, db := newService(t, f, Config{
		Regions: []market.Region{"us-east-1"},
		Budget:  od / 2, // cannot afford a single on-demand probe
	})
	svc.OnTick()
	if got := len(db.Probes()); got != 0 {
		t.Fatalf("probes = %d, want 0 under starvation budget", got)
	}
	if svc.Stats().BudgetDenied == 0 {
		t.Error("BudgetDenied not incremented")
	}
}

func TestBudgetWindowRolls(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 2
	svc, db := newService(t, f, Config{
		Regions:      []market.Region{"us-east-1"},
		Budget:       od * 1.1, // exactly one od probe per window
		BudgetWindow: time.Hour,
	})
	svc.OnTick() // first spike probed
	if got := len(db.Probes()); got != 1 {
		t.Fatalf("probes = %d, want 1", got)
	}
	// Second crossing inside the same window: suppressed.
	f.prices[trigMkt] = od * 0.5
	f.advance(time.Minute)
	svc.OnTick()
	f.prices[trigMkt] = od * 2
	f.advance(time.Minute)
	svc.OnTick()
	if got := len(db.Probes()); got != 1 {
		t.Fatalf("probes = %d, want 1 (budget exhausted)", got)
	}
	// After the window rolls, probing resumes.
	f.prices[trigMkt] = od * 0.5
	f.advance(time.Hour)
	svc.OnTick()
	f.prices[trigMkt] = od * 2
	f.advance(time.Minute)
	svc.OnTick()
	if got := len(db.Probes()); got != 2 {
		t.Errorf("probes = %d, want 2 after window roll", got)
	}
}

func TestSpotCNAHoldAndRecovery(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 0.05 // deep discount: CNA territory
	f.spotCNA[trigMkt] = true
	svc, db := newService(t, f, Config{
		Regions:              []market.Region{"us-east-1"},
		RecheckInterval:      5 * time.Minute,
		DisableFamilyProbing: true,
		SpotProbesPerDay:     100000, // make the round robin reach the market fast
	})
	svc.OnTick() // dt=0: no periodic probes yet
	f.advance(5 * time.Minute)
	for i := 0; i < 400 && svc.Stats().SpotRejections == 0; i++ {
		f.advance(time.Minute)
		svc.OnTick()
	}
	if svc.Stats().SpotRejections == 0 {
		t.Fatal("periodic spot probing never reached the CNA market")
	}
	// The CNA rejection must have triggered a cross od probe (§5.4 /
	// Chapter 4's CheckCapacity verification).
	crossOD := db.ProbesWhere(func(r store.ProbeRecord) bool {
		return r.Kind == store.ProbeOnDemand && r.Trigger == store.TriggerCross &&
			r.SourceKind == store.ProbeSpot && r.Market == trigMkt
	})
	if len(crossOD) != 1 {
		t.Errorf("cross od probes = %d, want 1", len(crossOD))
	}

	// Recovery: capacity returns; the held request fulfills on poll.
	f.spotCNA[trigMkt] = false
	f.advance(5 * time.Minute)
	svc.OnTick()
	outs := db.OutagesFor(trigMkt, store.ProbeSpot)
	if len(outs) != 1 || outs[0].End.IsZero() {
		t.Errorf("spot outage not closed: %+v", outs)
	}
}

func TestPeriodicSpotProbeRate(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 0.2
	svc, _ := newService(t, f, Config{
		Regions:          []market.Region{"us-east-1"},
		SpotProbesPerDay: 24, // exactly one per hour
	})
	svc.OnTick() // dt = 0
	for i := 0; i < 4; i++ {
		f.advance(time.Hour)
		svc.OnTick()
	}
	if got := svc.Stats().SpotProbes; got != 4 {
		t.Errorf("spot probes after 4 hours at 24/day = %d, want 4", got)
	}
}

func TestWatchedMarketDenseRecording(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 0.2
	f.prices[xzMkt] = od * 0.2
	svc, db := newService(t, f, Config{
		Regions:          []market.Region{"us-east-1"},
		WatchedMarkets:   []market.SpotID{trigMkt},
		PriceSampleEvery: time.Hour,
	})
	for i := 0; i < 12; i++ {
		svc.OnTick()
		f.prices[trigMkt] *= 1.01 // changes every tick
		f.prices[xzMkt] *= 1.01
		f.advance(5 * time.Minute)
	}
	dense := db.Prices(trigMkt)
	sparse := db.Prices(xzMkt)
	if len(dense) != 12 {
		t.Errorf("watched market samples = %d, want 12 (every change)", len(dense))
	}
	if len(sparse) != 1 {
		t.Errorf("unwatched market samples = %d, want 1 (hourly)", len(sparse))
	}
}

func TestBidSpreadStableMarket(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 0.3
	f.truePrc[trigMkt] = od * 0.3 // published == true: stable market
	svc, db := newService(t, f, Config{
		Regions:          []market.Region{"us-east-1"},
		BidSpreadMarkets: []market.SpotID{trigMkt},
	})
	svc.OnTick()
	recs := db.BidSpreadsFor(trigMkt)
	if len(recs) != 1 {
		t.Fatalf("bid spread records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Attempts != 1 {
		t.Errorf("stable market took %d attempts, want 1", r.Attempts)
	}
	if r.Intrinsic != r.Published {
		t.Errorf("intrinsic %v != published %v on stable market", r.Intrinsic, r.Published)
	}
}

func TestBidSpreadVolatileMarket(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 0.3
	f.truePrc[trigMkt] = od * 0.55 // true price ran ahead of published
	svc, db := newService(t, f, Config{
		Regions:          []market.Region{"us-east-1"},
		BidSpreadMarkets: []market.SpotID{trigMkt},
	})
	svc.OnTick()
	recs := db.BidSpreadsFor(trigMkt)
	if len(recs) != 1 {
		t.Fatalf("bid spread records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Intrinsic < f.truePrc[trigMkt] {
		t.Errorf("intrinsic %v below the true price %v", r.Intrinsic, f.truePrc[trigMkt])
	}
	if r.Intrinsic <= r.Published {
		t.Errorf("volatile market intrinsic %v should exceed published %v", r.Intrinsic, r.Published)
	}
	if r.Attempts < 2 || r.Attempts > maxBidSpreadAttempts {
		t.Errorf("attempts = %d, want 2..%d (paper: avg 2-3, max 6)", r.Attempts, maxBidSpreadAttempts)
	}
	// The search must not over-pay wildly: the intrinsic estimate stays
	// within the exponential bracket above the true price.
	if r.Intrinsic > f.truePrc[trigMkt]*1.5 {
		t.Errorf("intrinsic %v overshoots true price %v", r.Intrinsic, f.truePrc[trigMkt])
	}
}

func TestRevocationWatch(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 0.3
	svc, db := newService(t, f, Config{
		Regions:           []market.Region{"us-east-1"},
		RevocationMarkets: []market.SpotID{trigMkt},
		RevocationBid:     1.0,
	})
	svc.OnTick() // acquires the watch instance
	if len(f.instances) != 1 {
		t.Fatalf("instances = %d, want the revocation watch instance", len(f.instances))
	}
	var instID cloud.InstanceID
	for id := range f.instances {
		instID = id
	}

	// Hold for 3 hours, then the platform revokes.
	f.advance(3 * time.Hour)
	svc.OnTick() // accrues holding cost
	f.revoke(instID)
	f.advance(5 * time.Minute)
	svc.OnTick()

	recs := db.RevocationsFor(trigMkt, simtime.StudyEpoch, simtime.StudyEpoch.Add(24*time.Hour))
	if len(recs) != 1 {
		t.Fatalf("revocation records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Market != trigMkt {
		t.Errorf("market = %v", r.Market)
	}
	if r.Held < 3*time.Hour || r.Held > 4*time.Hour {
		t.Errorf("held = %v, want ~3h", r.Held)
	}
	if r.Bid != od {
		t.Errorf("bid = %v, want %v", r.Bid, od)
	}
	// After revocation the watcher re-acquires on a later tick.
	f.advance(5 * time.Minute)
	svc.OnTick()
	if svc.Stats().Revocations != 1 {
		t.Errorf("Revocations = %d, want 1", svc.Stats().Revocations)
	}
}

func TestPeriodicODBaseline(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 0.2 // never spikes
	f.odDown[trigMkt] = true
	svc, db := newService(t, f, Config{
		Regions:                []market.Region{"us-east-1"},
		PeriodicODProbesPerDay: 24, // one per hour
		Threshold:              1000,
		DisableFamilyProbing:   true,
	})
	svc.OnTick() // dt = 0: no probes yet
	found := false
	for i := 0; i < 800 && !found; i++ {
		f.advance(time.Hour)
		svc.OnTick()
		found = svc.Stats().ODRejections > 0
	}
	if !found {
		t.Fatal("naive baseline never reached the down market")
	}
	probes := db.ProbesWhere(func(r store.ProbeRecord) bool {
		return r.Trigger == store.TriggerPeriodicOD
	})
	if len(probes) == 0 {
		t.Fatal("no periodic-od probe records")
	}
	// The baseline runs with no market signal: spike counters stay zero.
	if svc.Stats().SpikesSeen != 0 {
		t.Errorf("SpikesSeen = %d under T=1000", svc.Stats().SpikesSeen)
	}
	// The detected market moves onto the recheck schedule and off the
	// round robin.
	if got := len(db.OutagesFor(trigMkt, store.ProbeOnDemand)); got != 1 {
		t.Errorf("outages = %d, want 1", got)
	}
}

func TestAccessors(t *testing.T) {
	f := newFakeProvider()
	svc, _ := newService(t, f, Config{Regions: []market.Region{"us-east-1"}})
	if svc.Spent() != 0 {
		t.Errorf("Spent() = %v before any probe", svc.Spent())
	}
}

func TestBudgetControllerAccessors(t *testing.T) {
	b := newBudgetController(10, time.Hour, simtime.StudyEpoch)
	if !b.allow(simtime.StudyEpoch, 6) {
		t.Fatal("first charge denied")
	}
	if b.allow(simtime.StudyEpoch, 6) {
		t.Fatal("over-budget charge allowed")
	}
	if b.Spent() != 6 {
		t.Errorf("Spent = %v, want 6", b.Spent())
	}
	b.refund(2)
	if b.Spent() != 4 {
		t.Errorf("Spent after refund = %v, want 4", b.Spent())
	}
	// Refunding more than spent clamps to zero rather than going
	// negative.
	b.refund(100)
	if b.Spent() != 0 {
		t.Errorf("Spent after over-refund = %v, want 0", b.Spent())
	}
}

func TestQuotaErrorsAreNotMarketSignal(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 2
	f.runErr = &apiErrorForTest{}
	svc, db := newService(t, f, Config{Regions: []market.Region{"us-east-1"}})
	svc.OnTick()
	if got := len(db.Probes()); got != 0 {
		t.Errorf("probes recorded = %d, want 0 for quota errors", got)
	}
	if svc.Stats().QuotaSkips == 0 {
		t.Error("QuotaSkips not incremented")
	}
	if got := len(db.OutagesFor(trigMkt, store.ProbeOnDemand)); got != 0 {
		t.Errorf("quota error opened an outage: %d", got)
	}
}

// apiErrorForTest mimics a RequestLimitExceeded error.
type apiErrorForTest struct{}

func (e *apiErrorForTest) Error() string { return "RequestLimitExceeded: scripted" }

// One monitoring tick drives the store's change feed: a live subscriber
// sees the tick's records as typed events — the spike immediately, and
// the tick's probes (plus derived outage transitions) flushed as one
// batched publish round at tick end.
func TestTickFlushDrivesChangeFeed(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 1.5 // spike over the threshold
	f.odDown[trigMkt] = true     // the probe is rejected -> outage opens
	svc, db := newService(t, f, Config{Regions: []market.Region{"us-east-1"}})

	sub := db.Feed().Subscribe(store.SubscribeOptions{
		Filter: store.EventFilter{Market: trigMkt},
	})
	defer sub.Close()

	svc.OnTick()

	byKind := map[store.EventKind]int{}
	probeGens := map[uint64]bool{}
	for {
		evs, _ := sub.Next(nil)
		if len(evs) == 0 {
			break
		}
		for _, ev := range evs {
			byKind[ev.Kind]++
			if ev.Kind == store.EventProbe {
				probeGens[ev.Gen] = true
			}
		}
	}
	if byKind[store.EventPrice] == 0 {
		t.Error("no price event from the tick's scan")
	}
	if byKind[store.EventSpike] != 1 {
		t.Errorf("spike events = %d, want 1", byKind[store.EventSpike])
	}
	if byKind[store.EventProbe] == 0 {
		t.Error("no probe event from the tick's flush")
	}
	if byKind[store.EventOutageOpen] != 1 {
		t.Errorf("outage-open events = %d, want 1", byKind[store.EventOutageOpen])
	}

	// The flush batches per market: the tick's probe records share one
	// publish round, i.e. the probe events carry one generation.
	if len(probeGens) != 1 {
		t.Errorf("the tick's probe events carry %d generations, want 1", len(probeGens))
	}
}

// After a tick's flush no monitor holds a probe buffer: the store copies a
// batch on append, so a buffer kept for the next tick would only pin the
// largest tick each market ever probed.
func TestTickFlushDropsProbeBuffers(t *testing.T) {
	f := newFakeProvider()
	od := odPrice(t, f, trigMkt)
	f.prices[trigMkt] = od * 1.5 // spike over the threshold
	f.odDown[trigMkt] = true     // the rejection fans out to related markets
	svc, db := newService(t, f, Config{Regions: []market.Region{"us-east-1"}})

	svc.OnTick()

	if db.ProbeCount() == 0 {
		t.Fatal("the tick logged no probe")
	}
	for i := range svc.mons {
		if mon := &svc.mons[i]; cap(mon.pending) != 0 {
			t.Errorf("%v holds a probe buffer of %d records after the tick", svc.id(mon), cap(mon.pending))
		}
	}
	if len(svc.dirtyMons) != 0 {
		t.Errorf("%d monitors still marked dirty after the tick", len(svc.dirtyMons))
	}
}
