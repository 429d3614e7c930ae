package cloud

import (
	"math"
	"runtime"
	"testing"
	"time"

	"spotlight/internal/market"
)

// testSim builds a full-catalog simulator with a fixed seed.
func testSim(t *testing.T, seed uint64) *Sim {
	t.Helper()
	s, err := New(market.New(), Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var testMarket = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}

func TestStepAdvancesClock(t *testing.T) {
	s := testSim(t, 1)
	t0 := s.Now()
	t1 := s.Step()
	if got := t1.Sub(t0); got != s.Tick() {
		t.Errorf("Step advanced %v, want %v", got, s.Tick())
	}
	if !s.Now().Equal(t1) {
		t.Errorf("Now() = %v, want %v", s.Now(), t1)
	}
}

func TestRunInstanceLifecycle(t *testing.T) {
	s := testSim(t, 1)
	inst, err := s.RunInstance(testMarket)
	if err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	if inst.State != InstanceRunning {
		t.Errorf("state = %v, want running", inst.State)
	}
	if inst.Spot {
		t.Error("on-demand instance flagged as spot")
	}
	if err := s.TerminateInstance(inst.ID); err != nil {
		t.Fatalf("TerminateInstance: %v", err)
	}
	got, err := s.DescribeInstance(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != InstanceShuttingDown {
		t.Errorf("state after terminate = %v, want shutting-down", got.State)
	}
	s.Step()
	got, err = s.DescribeInstance(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != InstanceTerminated {
		t.Errorf("state after step = %v, want terminated", got.State)
	}
	// Terminating again is a no-op, as in EC2.
	if err := s.TerminateInstance(inst.ID); err != nil {
		t.Errorf("double terminate errored: %v", err)
	}
}

func TestRunInstanceOneHourMinimumCharge(t *testing.T) {
	s := testSim(t, 1)
	od, err := s.OnDemandPrice(testMarket)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.RunInstance(testMarket)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TerminateInstance(inst.ID); err != nil {
		t.Fatal(err)
	}
	// A probe that holds the server for zero time still pays one hour
	// (§2.2: "there is a minimum charge—one hour of server time").
	if got := s.ClientCost(); math.Abs(got-od) > 1e-9 {
		t.Errorf("ClientCost = %v, want one hour at %v", got, od)
	}
}

func TestRunInstanceUnknownMarket(t *testing.T) {
	s := testSim(t, 1)
	_, err := s.RunInstance(market.SpotID{Zone: "atlantis-1a", Type: "c3.large", Product: market.ProductLinux})
	if !IsCode(err, ErrBadParameters) {
		t.Errorf("err = %v, want %s", err, ErrBadParameters)
	}
	_, err = s.RunInstance(market.SpotID{Zone: "us-east-1a", Type: "z9.mega", Product: market.ProductLinux})
	if !IsCode(err, ErrBadParameters) {
		t.Errorf("err = %v, want %s", err, ErrBadParameters)
	}
}

func TestInstanceTypeQuota(t *testing.T) {
	s := testSim(t, 1)
	var last error
	launched := 0
	for i := 0; i < 25; i++ {
		_, err := s.RunInstance(testMarket)
		if err != nil {
			last = err
			break
		}
		launched++
	}
	if launched != s.cfg.MaxRunningPerType {
		t.Errorf("launched %d instances, want quota %d", launched, s.cfg.MaxRunningPerType)
	}
	if !IsCode(last, ErrInstanceLimitExceeded) {
		t.Errorf("err = %v, want %s", last, ErrInstanceLimitExceeded)
	}
}

func TestAPIRateLimit(t *testing.T) {
	s, err := New(market.New(), Config{Seed: 1, APICallsPerTickPerRegion: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.SpotPrice(testMarket); err != nil {
			t.Fatal(err) // price reads are free; only mutating calls count
		}
	}
	var calls []error
	for i := 0; i < 4; i++ {
		_, err := s.RunInstance(testMarket)
		calls = append(calls, err)
	}
	if !IsCode(calls[3], ErrRequestLimitExceeded) {
		t.Errorf("4th call err = %v, want %s", calls[3], ErrRequestLimitExceeded)
	}
	// The budget resets on the next tick.
	s.Step()
	if _, err := s.RunInstance(testMarket); err != nil {
		t.Errorf("call after reset failed: %v", err)
	}
}

func TestSpotRequestFulfilledAtHighBid(t *testing.T) {
	s := testSim(t, 1)
	od, _ := s.OnDemandPrice(testMarket)
	req, err := s.RequestSpotInstance(testMarket, od) // bid the on-demand price
	if err != nil {
		t.Fatal(err)
	}
	if req.State != SpotFulfilled {
		t.Fatalf("state = %v, want fulfilled (history %v)", req.State, req.History)
	}
	if req.Instance == "" {
		t.Fatal("fulfilled request carries no instance")
	}
	inst, err := s.DescribeInstance(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Spot || inst.State != InstanceRunning {
		t.Errorf("instance = %+v, want running spot", inst)
	}
	// History must walk pending-evaluation -> pending-fulfillment -> fulfilled.
	wantPath := []SpotRequestState{SpotPendingEvaluation, SpotPendingFulfillment, SpotFulfilled}
	if len(req.History) != len(wantPath) {
		t.Fatalf("history = %v, want path %v", req.History, wantPath)
	}
	for i, tr := range req.History {
		if tr.State != wantPath[i] {
			t.Errorf("history[%d] = %v, want %v", i, tr.State, wantPath[i])
		}
	}
}

func TestSpotRequestPriceTooLow(t *testing.T) {
	s := testSim(t, 1)
	req, err := s.RequestSpotInstance(testMarket, priceTick) // bid one tick
	if err != nil {
		t.Fatal(err)
	}
	if req.State != SpotPriceTooLow && req.State != SpotCapacityNotAvailable {
		t.Errorf("state = %v, want price-too-low (or cna)", req.State)
	}
	if err := s.CancelSpotRequest(req.ID); err != nil {
		t.Fatal(err)
	}
	got, err := s.DescribeSpotRequest(req.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != SpotCancelled {
		t.Errorf("state after cancel = %v, want cancelled", got.State)
	}
	// Cancelling again is a no-op.
	if err := s.CancelSpotRequest(req.ID); err != nil {
		t.Errorf("double cancel errored: %v", err)
	}
}

func TestSpotRequestBadParameters(t *testing.T) {
	s := testSim(t, 1)
	od, _ := s.OnDemandPrice(testMarket)
	for _, bid := range []float64{0, -1, od * maxBidMultiple * 1.01} {
		req, err := s.RequestSpotInstance(testMarket, bid)
		if err != nil {
			t.Fatalf("bid %v: %v", bid, err)
		}
		if req.State != SpotBadParameters {
			t.Errorf("bid %v: state = %v, want bad-parameters", bid, req.State)
		}
	}
	_, err := s.RequestSpotInstance(market.SpotID{Zone: "atlantis-1a", Type: "c3.large", Product: market.ProductLinux}, 1)
	if !IsCode(err, ErrBadParameters) {
		t.Errorf("unknown market err = %v, want %s", err, ErrBadParameters)
	}
}

func TestSpotRequestQuota(t *testing.T) {
	s := testSim(t, 1)
	// Park requests in price-too-low so they stay open.
	var last error
	opened := 0
	for i := 0; i < 25; i++ {
		req, err := s.RequestSpotInstance(testMarket, priceTick)
		if err != nil {
			last = err
			break
		}
		if !req.State.Held() {
			t.Fatalf("request %d not held: %v", i, req.State)
		}
		opened++
	}
	if opened != s.cfg.MaxOpenSpotRequestsPerRegion {
		t.Errorf("opened %d requests, want quota %d", opened, s.cfg.MaxOpenSpotRequestsPerRegion)
	}
	if !IsCode(last, ErrSpotRequestLimitExceeded) {
		t.Errorf("err = %v, want %s", last, ErrSpotRequestLimitExceeded)
	}
}

func TestCancelFulfilledLeavesInstanceRunning(t *testing.T) {
	s := testSim(t, 1)
	od, _ := s.OnDemandPrice(testMarket)
	req, err := s.RequestSpotInstance(testMarket, od)
	if err != nil {
		t.Fatal(err)
	}
	if req.State != SpotFulfilled {
		t.Fatalf("precondition: request not fulfilled (%v)", req.State)
	}
	if err := s.CancelSpotRequest(req.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := s.DescribeSpotRequest(req.ID)
	if got.State != SpotRequestCanceledInstanceRunning {
		t.Errorf("state = %v, want request-canceled-and-instance-running", got.State)
	}
	inst, err := s.DescribeInstance(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if inst.State != InstanceRunning {
		t.Errorf("instance state = %v, want running", inst.State)
	}
}

func TestSpotTerminateByUser(t *testing.T) {
	s := testSim(t, 1)
	od, _ := s.OnDemandPrice(testMarket)
	req, err := s.RequestSpotInstance(testMarket, od)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TerminateInstance(req.Instance); err != nil {
		t.Fatal(err)
	}
	got, _ := s.DescribeSpotRequest(req.ID)
	if got.State != SpotInstanceTerminatedByUser {
		t.Errorf("state = %v, want instance-terminated-by-user", got.State)
	}
}

func TestSpotRevocationOnPriceRise(t *testing.T) {
	s := testSim(t, 1)
	od, _ := s.OnDemandPrice(testMarket)
	req, err := s.RequestSpotInstance(testMarket, od*maxBidMultiple*0.99)
	if err != nil {
		t.Fatal(err)
	}
	if req.State != SpotFulfilled {
		t.Fatalf("precondition: request not fulfilled (%v)", req.State)
	}
	// Force the clearing price above the bid and advance: the simulator
	// must warn (marked-for-termination), then terminate by price after
	// the two-minute warning.
	idx := s.marketIdx[testMarket]
	inst := s.instances[req.Instance]
	s.markets[idx].truePrice = inst.Bid + priceTick
	now := s.Now()
	s.advanceInstances(now)

	got, _ := s.DescribeSpotRequest(req.ID)
	if got.State != SpotMarkedForTermination {
		t.Fatalf("state = %v, want marked-for-termination", got.State)
	}
	iv, _ := s.DescribeInstance(req.Instance)
	if iv.State != InstanceShuttingDown {
		t.Fatalf("instance state = %v, want shutting-down", iv.State)
	}
	if iv.WarningAt.IsZero() {
		t.Fatal("no revocation warning recorded")
	}

	s.advanceInstances(now.Add(s.cfg.RevocationWarning))
	got, _ = s.DescribeSpotRequest(req.ID)
	if got.State != SpotInstanceTerminatedByPrice {
		t.Errorf("state = %v, want instance-terminated-by-price", got.State)
	}
	iv, _ = s.DescribeInstance(req.Instance)
	if iv.State != InstanceTerminated || !iv.Revoked {
		t.Errorf("instance = state %v revoked=%v, want terminated+revoked", iv.State, iv.Revoked)
	}
}

func TestSpotPrice(t *testing.T) {
	s := testSim(t, 1)
	for i := 0; i < 50; i++ {
		s.Step()
	}
	p, err := s.SpotPrice(testMarket)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Errorf("SpotPrice = %v, want positive", p)
	}
	if _, err := s.SpotPrice(market.SpotID{Zone: "atlantis-1a", Type: "c3.large", Product: market.ProductLinux}); err == nil {
		t.Error("price for unknown market succeeded")
	}
}

func TestDescribeSpotRequestsBatch(t *testing.T) {
	s := testSim(t, 1)
	// Two held requests in us-east-1, one in sa-east-1.
	r1, err := s.RequestSpotInstance(testMarket, priceTick)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RequestSpotInstance(testMarket, priceTick)
	if err != nil {
		t.Fatal(err)
	}
	saMkt := market.SpotID{Zone: "sa-east-1a", Type: "m3.large", Product: market.ProductLinux}
	r3, err := s.RequestSpotInstance(saMkt, priceTick)
	if err != nil {
		t.Fatal(err)
	}

	views, err := s.DescribeSpotRequests("us-east-1", []RequestID{r1.ID, r2.ID, r3.ID, "sir-nope"})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("views = %d, want 2 (cross-region and unknown skipped)", len(views))
	}
	if _, ok := views[r3.ID]; ok {
		t.Error("sa-east-1 request leaked into the us-east-1 batch")
	}
	for id, v := range views {
		if !v.State.Held() {
			t.Errorf("request %v state = %v, want held", id, v.State)
		}
	}
	// The batch is one API call: it consumes exactly one unit of budget.
	before := s.regions["us-east-1"].apiCalls
	if _, err := s.DescribeSpotRequests("us-east-1", []RequestID{r1.ID, r2.ID}); err != nil {
		t.Fatal(err)
	}
	if got := s.regions["us-east-1"].apiCalls - before; got != 1 {
		t.Errorf("batch consumed %d API calls, want 1", got)
	}
	if _, err := s.DescribeSpotRequests("atlantis-1", nil); !IsCode(err, ErrBadParameters) {
		t.Errorf("unknown region err = %v", err)
	}
}

// TestEachRegionPrice states the provider contract the monitor's region
// scan is built on: for every catalog region, EachRegionPrice yields
// exactly the catalog's markets of that region, in SpotMarkets() order,
// each with its position in SpotMarkets() as Index and its current
// published price.
func TestEachRegionPrice(t *testing.T) {
	s := testSim(t, 1)
	s.Step()
	type row struct {
		id    market.SpotID
		index int
	}
	want := make(map[market.Region][]row)
	for i, id := range s.Catalog().SpotMarkets() {
		want[id.Region()] = append(want[id.Region()], row{id, i})
	}
	for _, r := range s.Catalog().Regions() {
		var got []row
		s.EachRegionPrice(r, func(mp MarketPrice) {
			got = append(got, row{mp.ID, mp.Index})
			if p, err := s.SpotPrice(mp.ID); err != nil || mp.Spot != p {
				t.Errorf("%v: Spot = %v, SpotPrice = %v (%v)", mp.ID, mp.Spot, p, err)
			}
			if mp.Spot <= 0 || mp.OnDemand <= 0 {
				t.Errorf("market %v: non-positive prices %+v", mp.ID, mp)
			}
		})
		if len(got) != len(want[r]) {
			t.Fatalf("%s: %d markets, catalog has %d", r, len(got), len(want[r]))
		}
		for k := range got {
			if got[k] != want[r][k] {
				t.Fatalf("%s row %d = %+v, want %+v", r, k, got[k], want[r][k])
			}
		}
	}
	if n, want := len(want["us-east-1"]), 5*53*3; n != want { // 5 zones x 53 types x 3 products
		t.Errorf("us-east-1 snapshot = %d markets, want %d", n, want)
	}
	s.EachRegionPrice("atlantis-1", func(mp MarketPrice) {
		t.Errorf("unknown region yielded %v", mp.ID)
	})
}

func TestDeterministicPrices(t *testing.T) {
	s1 := testSim(t, 42)
	s2 := testSim(t, 42)
	for i := 0; i < 20; i++ {
		s1.Step()
		s2.Step()
	}
	for _, id := range []market.SpotID{
		testMarket,
		{Zone: "sa-east-1a", Type: "m3.large", Product: market.ProductWindows},
	} {
		p1, _ := s1.SpotPrice(id)
		p2, _ := s2.SpotPrice(id)
		if p1 != p2 {
			t.Errorf("market %v diverged under equal seeds: %v vs %v", id, p1, p2)
		}
	}
}

func TestPublishedPriceLags(t *testing.T) {
	s := testSim(t, 7)
	idx := s.marketIdx[testMarket]
	var prevTrue float64
	sawLag := false
	for i := 0; i < 30; i++ {
		prevTrue = s.markets[idx].truePrice
		s.Step()
		if s.markets[idx].published == prevTrue {
			sawLag = true
		}
	}
	if !sawLag {
		t.Error("published price never equalled the previous tick's true price; lag is broken")
	}
}

func TestTrueOutagesAccumulate(t *testing.T) {
	s := testSim(t, 3)
	days := 3
	steps := int(time.Duration(days) * 24 * time.Hour / s.Tick())
	for i := 0; i < steps; i++ {
		s.Step()
	}
	outs := s.TrueOutages()
	if len(outs) == 0 {
		t.Fatal("no ground-truth outages in 3 days; demand model too tame")
	}
	byRegion := make(map[market.Region]int)
	for _, o := range outs {
		if o.End.Before(o.Start) {
			t.Fatalf("outage %+v ends before it starts", o)
		}
		byRegion[o.Pool.Zone.RegionOf()]++
	}
	// §5.2.2: the under-provisioned regions dominate unavailability.
	weak := byRegion["sa-east-1"] + byRegion["ap-southeast-1"] + byRegion["ap-southeast-2"]
	if weak <= byRegion["us-east-1"] {
		t.Errorf("under-provisioned regions saw %d outages vs us-east-1's %d; want more", weak, byRegion["us-east-1"])
	}
}

func TestODAvailableAtConsistency(t *testing.T) {
	s := testSim(t, 3)
	for i := 0; i < 500; i++ {
		s.Step()
	}
	outs, err := s.TrueOutagesFor(market.SpotID{Zone: "sa-east-1a", Type: "d2.8xlarge", Product: market.ProductLinux})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		mid := o.Start.Add(o.Duration(s.Now()) / 2)
		ok, err := s.ODAvailableAt(market.SpotID{Zone: "sa-east-1a", Type: "d2.8xlarge", Product: market.ProductLinux}, mid)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("market reported available at %v inside outage %+v", mid, o)
		}
	}
	if _, err := s.TrueOutagesFor(market.SpotID{Zone: "atlantis-1a", Type: "c3.large", Product: market.ProductLinux}); err == nil {
		t.Error("TrueOutagesFor unknown market succeeded")
	}
}

func TestOutageTrackerUnit(t *testing.T) {
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	tr := newOutageTracker(market.PoolID{Zone: "us-east-1a", Family: "c3"}, []int{8, 32})
	tr.observe(base, 100)                    // plenty free
	tr.observe(base.Add(time.Minute), 16)    // 32-unit types now out
	tr.observe(base.Add(2*time.Minute), 4)   // everything out
	tr.observe(base.Add(3*time.Minute), 100) // recovered
	outs := tr.snapshot(base.Add(4 * time.Minute))
	if len(outs) != 2 {
		t.Fatalf("outages = %d, want 2 (got %+v)", len(outs), outs)
	}
	var small, large *Outage
	for i := range outs {
		switch outs[i].Units {
		case 8:
			small = &outs[i]
		case 32:
			large = &outs[i]
		}
	}
	if small == nil || large == nil {
		t.Fatalf("missing size bands in %+v", outs)
	}
	if got := small.End.Sub(small.Start); got != time.Minute {
		t.Errorf("8-unit outage lasted %v, want 1m", got)
	}
	if got := large.End.Sub(large.Start); got != 2*time.Minute {
		t.Errorf("32-unit outage lasted %v, want 2m", got)
	}
}

func TestOutageContains(t *testing.T) {
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	o := Outage{Start: base, End: base.Add(time.Hour)}
	if o.Contains(base.Add(-time.Second)) {
		t.Error("Contains before start")
	}
	if !o.Contains(base) {
		t.Error("start instant should be contained")
	}
	if o.Contains(base.Add(time.Hour)) {
		t.Error("end instant should be excluded")
	}
	ongoing := Outage{Start: base}
	if !ongoing.Contains(base.Add(100 * time.Hour)) {
		t.Error("ongoing outage should contain any later instant")
	}
	if got := ongoing.Duration(base.Add(2 * time.Hour)); got != 2*time.Hour {
		t.Errorf("ongoing Duration = %v, want 2h", got)
	}
}

// TestRetiredObjectsExpireAfterRetention drives terminated instances and
// closed spot requests across more than a day: each object stays
// describable for retireRetention after it retires and is gone after it,
// and the retire queue stays ordered by retirement time, the invariant
// prune's prefix expiry relies on.
func TestRetiredObjectsExpireAfterRetention(t *testing.T) {
	s := testSim(t, 1)
	od, err := s.OnDemandPrice(testMarket)
	if err != nil {
		t.Fatal(err)
	}

	// An object is an instance or a request; at is when it retired (zero
	// until it is seen in a terminal state).
	type object struct {
		inst InstanceID
		req  RequestID
		at   time.Time
	}
	var objs []*object
	retireSome := func() {
		inst, err := s.RunInstance(testMarket)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.TerminateInstance(inst.ID); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, &object{inst: inst.ID})

		// A bid at the on-demand price usually wins: the user ends the
		// instance, which closes the request. Otherwise cancel it.
		req, err := s.RequestSpotInstance(testMarket, od)
		if err != nil {
			t.Fatal(err)
		}
		if req.State == SpotFulfilled {
			if err := s.TerminateInstance(req.Instance); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, &object{inst: req.Instance})
		} else if err := s.CancelSpotRequest(req.ID); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, &object{req: req.ID})

		// A bid under the floor is held until cancelled.
		low, err := s.RequestSpotInstance(testMarket, od/1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CancelSpotRequest(low.ID); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, &object{req: low.ID})
	}

	start := s.Now()
	end := start.Add(retireRetention + 14*time.Hour)
	for s.Now().Before(end) {
		if s.Now().Sub(start) < 12*time.Hour && s.Now().Sub(start)%(3*time.Hour) == 0 {
			retireSome()
		}
		s.Step()

		for k := 1; k < len(s.retired); k++ {
			if s.retired[k].at.Before(s.retired[k-1].at) {
				t.Fatalf("retired[%d] at %v precedes retired[%d] at %v",
					k, s.retired[k].at, k-1, s.retired[k-1].at)
			}
		}
		for _, o := range objs {
			var err error
			if o.inst != "" {
				var inst Instance
				inst, err = s.DescribeInstance(o.inst)
				if err == nil && o.at.IsZero() && inst.State == InstanceTerminated {
					o.at = inst.End
				}
			} else {
				var req SpotRequest
				req, err = s.DescribeSpotRequest(o.req)
				if err == nil && o.at.IsZero() && req.State.Terminal() {
					o.at = req.Updated
				}
			}
			switch {
			case o.at.IsZero():
				if err != nil {
					t.Fatalf("%s%s gone before it retired: %v", o.inst, o.req, err)
				}
			case s.Now().Sub(o.at) < retireRetention:
				if err != nil {
					t.Fatalf("%s%s retired at %v, gone at %v: %v", o.inst, o.req, o.at, s.Now(), err)
				}
			case !IsCode(err, ErrNotFound):
				t.Fatalf("%s%s retired at %v, still describable at %v (err %v)", o.inst, o.req, o.at, s.Now(), err)
			}
		}
	}
	for _, o := range objs {
		if o.at.IsZero() {
			t.Errorf("%s%s never retired", o.inst, o.req)
		}
	}
	if len(s.retired) != 0 {
		t.Errorf("%d retire entries left after every object expired", len(s.retired))
	}
}

// TestNewRetainsLittle guards the simulator's resident size: a
// full-catalog Sim holds the per-market state a tick needs, a few MB,
// and no per-market buffers that nothing on the serving path reads.
func TestNewRetainsLittle(t *testing.T) {
	cat := market.New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cat, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("cloud.New retains %.1f MiB", float64(retained)/(1<<20))
	if retained >= 8<<20 {
		t.Errorf("cloud.New retains %d B, want < 8 MiB", retained)
	}
}
