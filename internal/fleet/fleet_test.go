package fleet

import (
	"math"
	"sync"
	"testing"
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

var (
	mktX = market.SpotID{Zone: "us-east-1a", Type: "c3.2xlarge", Product: market.ProductLinux}
	mktY = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
)

// rig is one self-contained manager test bed: a stepped simulator for
// instances, a hand-fed store for the advisor and the change feed.
type rig struct {
	sim *cloud.Sim
	db  *store.Store
	cat *market.Catalog
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cat := market.New()
	sim, err := cloud.New(cat, cloud.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A few ticks so every market has a published price to clear against.
	for i := 0; i < 3; i++ {
		sim.Step()
	}
	return &rig{sim: sim, db: store.New(), cat: cat}
}

// price feeds the store a flat price history for id over the trailing
// window, making it an advisor candidate.
func (r *rig) price(id market.SpotID, p float64) {
	now := r.sim.Now()
	for i := 5; i >= 0; i-- { // oldest first: the store takes a series in time order
		r.db.RecordPrice(id, store.PricePoint{At: now.Add(-time.Duration(i) * time.Hour), Price: p})
	}
}

func (r *rig) manager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	cfg.Sim, cfg.DB, cfg.Cat = r.sim, r.db, r.cat
	if cfg.Target == 0 {
		cfg.Target = 2
	}
	if cfg.Constraints.Regions == nil {
		cfg.Constraints = api.AdviseConstraints{Regions: []string{"us-east-1"}}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestThresholdBid(t *testing.T) {
	p := &Threshold{}
	if got := p.Bid(0.5, 0.05); got != 0.5 {
		t.Errorf("default threshold bid = %g, want the on-demand price", got)
	}
	p = &Threshold{Multiple: 1.5}
	if got := p.Bid(0.5, 0.05); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("1.5x threshold bid = %g, want 0.75", got)
	}
}

func TestFeedbackControlAdapts(t *testing.T) {
	p := &FeedbackControl{}
	neutral := p.Bid(1, 0)
	if neutral != 1.0 {
		t.Errorf("fresh controller bid = %g, want 1.0 (no error signal yet)", neutral)
	}
	// Fleet fully down: the bid must rise.
	p.Observe(Observation{Running: 0, Target: 4})
	if up := p.Bid(1, 0); up <= neutral {
		t.Errorf("bid after starvation = %g, want above %g", up, neutral)
	}
	// Sustained health: the bid relaxes below the threshold policy's and
	// respects the output floor.
	for i := 0; i < 100; i++ {
		p.Observe(Observation{Running: 4, Target: 4})
	}
	low := p.Bid(1, 0)
	if low >= 1.0 {
		t.Errorf("bid after sustained health = %g, want below 1.0", low)
	}
	if low < fcMinMultiple {
		t.Errorf("bid %g broke the %g floor", low, fcMinMultiple)
	}
	// Anti-windup: a long healthy stretch must not leave the controller
	// saturated — starvation pulls it back above 1 within a bounded number
	// of observations.
	for i := 0; i < 30; i++ {
		p.Observe(Observation{Running: 0, Target: 4})
	}
	if rec := p.Bid(1, 0); rec <= 1.0 {
		t.Errorf("bid after renewed starvation = %g, want above 1.0", rec)
	}
	// A zero-target observation is ignored, not a division by zero.
	p.Observe(Observation{Running: 0, Target: 0})
}

func TestBilledHours(t *testing.T) {
	cases := []struct {
		dur     time.Duration
		revoked bool
		want    float64
	}{
		{30 * time.Minute, false, 1}, // one-hour minimum
		{61 * time.Minute, false, 2}, // rounds up to whole hours
		{2 * time.Hour, false, 2},
		{-5 * time.Minute, false, 1},
		{30 * time.Minute, true, 0}, // revoked: interrupted hour free
		{90 * time.Minute, true, 1},
		{2 * time.Hour, true, 2},
	}
	for _, tc := range cases {
		if got := billedHours(tc.dur, tc.revoked); got != tc.want {
			t.Errorf("billedHours(%v, revoked=%v) = %g, want %g", tc.dur, tc.revoked, got, tc.want)
		}
	}
}

func TestClampBid(t *testing.T) {
	if got := clampBid(100, 0.5); got != 5 {
		t.Errorf("over-cap bid = %g, want 10x on-demand", got)
	}
	if got := clampBid(-1, 0.5); got != 0.005 {
		t.Errorf("non-positive bid = %g, want 0.01x on-demand", got)
	}
	if got := clampBid(0.4, 0.5); got != 0.4 {
		t.Errorf("in-range bid = %g, want unchanged", got)
	}
}

// TestManagerFillsToTarget fills two slots in one Step, which places both
// from one ranking: the advisor ranks once, not once per slot.
func TestManagerFillsToTarget(t *testing.T) {
	r := newRig(t)
	r.price(mktX, 0.05)
	m := r.manager(t, Config{Target: 2})
	defer m.Close(r.sim.Now())

	before := m.adv.Rankings()
	m.Step(r.sim.Now())
	met := m.Metrics()
	if met.SpotLaunches != 2 || met.Fallbacks != 0 {
		t.Errorf("after one step: %+v, want 2 spot launches and no fallbacks", met)
	}
	if got := m.adv.Rankings() - before; got != 1 {
		t.Errorf("one Step ranked %d times, want 1", got)
	}
	if got := met.AvailabilityPcnt(); got != 100 {
		t.Errorf("availability = %g, want 100", got)
	}
	final := m.Close(r.sim.Now())
	if final.Cost <= 0 {
		t.Errorf("closed fleet cost = %g, want the one-hour minimums billed", final.Cost)
	}
}

// lowballPolicy bids below any plausible clearing price, forcing every
// spot attempt into a held request.
type lowballPolicy struct{}

func (lowballPolicy) Name() string              { return "lowball" }
func (lowballPolicy) Bid(od, _ float64) float64 { return od * 1e-9 }
func (lowballPolicy) Observe(Observation)       {}

func TestManagerFallsBackToOnDemand(t *testing.T) {
	r := newRig(t)
	r.price(mktX, 0.05)
	m := r.manager(t, Config{Target: 2, Policy: lowballPolicy{}})
	defer m.Close(r.sim.Now())

	m.Step(r.sim.Now())
	met := m.Metrics()
	if met.SpotLaunches != 0 {
		t.Errorf("lowball policy landed %d spot instances", met.SpotLaunches)
	}
	if met.Fallbacks != 2 {
		t.Errorf("fallbacks = %d, want 2 on-demand placements", met.Fallbacks)
	}
	if got := met.AvailabilityPcnt(); got != 100 {
		t.Errorf("availability = %g, want 100 (fallback keeps the fleet whole)", got)
	}
}

func TestManagerAvoidsSpikedMarketAndMigrates(t *testing.T) {
	r := newRig(t)
	// X is cheaper, so absent events it wins the ranking.
	r.price(mktX, 0.03)
	r.price(mktY, 0.05)
	m := r.manager(t, Config{Target: 1})
	defer m.Close(r.sim.Now())

	m.Step(r.sim.Now())
	if m.slots[0].mkt != mktX {
		t.Fatalf("initial placement on %v, want the cheaper %v", m.slots[0].mkt, mktX)
	}

	// A crossing spike on X must steer the held instance to Y.
	r.db.AppendSpike(store.SpikeEvent{At: r.sim.Now(), Market: mktX, Ratio: 1.8})
	m.Step(r.sim.Now())
	met := m.Metrics()
	if met.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1 (metrics %+v)", met.Migrations, met)
	}
	if m.slots[0].mkt != mktY {
		t.Errorf("post-spike placement on %v, want %v", m.slots[0].mkt, mktY)
	}
	if met.Events == 0 {
		t.Error("no feed events consumed")
	}

	// The flag expires; nothing migrates back on its own (placement is
	// sticky until an event or repatriation says otherwise).
	m.Step(r.sim.Now().Add(2 * time.Hour))
	if got := m.Metrics().Migrations; got != 1 {
		t.Errorf("migrations after expiry = %d, want still 1", got)
	}
}

func TestManagerCountsRevocations(t *testing.T) {
	r := newRig(t)
	r.price(mktX, 0.03)
	m := r.manager(t, Config{Target: 1})
	defer m.Close(r.sim.Now())

	m.Step(r.sim.Now())
	if m.slots[0].id == "" {
		t.Fatal("no instance placed")
	}
	held := m.slots[0]

	// Step the simulator until the platform takes the instance (the
	// threshold bid loses once the price crosses on-demand) or give up.
	revoked := false
	for i := 0; i < 24*12*7; i++ {
		r.sim.Step()
		inst, err := r.sim.DescribeInstance(held.id)
		if err != nil || inst.State != cloud.InstanceRunning {
			revoked = true
			break
		}
	}
	if !revoked {
		t.Skip("seeded run never revoked the instance; nothing to assert")
	}
	m.Step(r.sim.Now())
	met := m.Metrics()
	if met.Revocations != 1 {
		t.Errorf("revocations = %d, want 1 (metrics %+v)", met.Revocations, met)
	}
	if _, bad := m.avoid[held.mkt]; !bad {
		t.Error("revoked market not in the avoid set")
	}
}

// TestManagerConcurrentFeed exercises the feed path under the race
// detector: a writer goroutine appends spikes and prices while the
// manager steps, mirroring a live monitoring service feeding the store
// as the fleet loop runs.
func TestManagerConcurrentFeed(t *testing.T) {
	r := newRig(t)
	r.price(mktX, 0.03)
	r.price(mktY, 0.05)
	m := r.manager(t, Config{Target: 2})

	const ticks = 50
	var wg sync.WaitGroup
	// The appender signals after each publish, so every Step has at least
	// one fresh event buffered — while the next append races the drain,
	// which is the interleaving the race detector is here to check.
	appended := make(chan struct{}, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := r.sim.Now()
		for i := 0; i < ticks; i++ {
			r.db.AppendSpike(store.SpikeEvent{At: at, Market: mktX, Ratio: 1.5})
			r.db.RecordPrice(mktY, store.PricePoint{At: at, Price: 0.05})
			appended <- struct{}{}
		}
	}()
	now := r.sim.Now()
	for i := 0; i < ticks; i++ {
		<-appended
		m.Step(now.Add(time.Duration(i) * 5 * time.Minute))
	}
	wg.Wait()
	met := m.Close(r.sim.Now())
	if met.Events == 0 {
		t.Error("no events consumed from the concurrent feed")
	}
	if met.Ticks != ticks {
		t.Errorf("ticks = %d, want %d", met.Ticks, ticks)
	}
}
