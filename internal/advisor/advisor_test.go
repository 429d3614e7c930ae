package advisor

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

var t0 = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)

// Catalog facts the tests lean on: m3.large is 2 vCPUs at $0.133 OD,
// m3.xlarge 4 vCPUs at $0.266, c3.2xlarge 8 vCPUs at $0.420.
var (
	mktSmall = market.SpotID{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductLinux}
	mktMid   = market.SpotID{Zone: "us-east-1b", Type: "m3.xlarge", Product: market.ProductLinux}
	mktBig   = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	mktWest  = market.SpotID{Zone: "us-west-2a", Type: "c3.2xlarge", Product: market.ProductLinux}
)

func newAdvisor(t *testing.T) (*Advisor, *store.Store) {
	t.Helper()
	db := store.New()
	return New(db, market.New()), db
}

// recordFlat writes hourly price samples at a flat price across the test
// day, making the market a candidate with mean == price.
func recordFlat(db *store.Store, id market.SpotID, price float64) {
	for i := 0; i < 24; i++ {
		db.RecordPrice(id, store.PricePoint{At: t0.Add(time.Duration(i) * time.Hour), Price: price})
	}
}

func advise(t *testing.T, a *Advisor, c api.AdviseConstraints) []api.AdviseCandidate {
	t.Helper()
	cons, err := a.Normalize(c)
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", c, err)
	}
	return a.Advise(cons, t0, t0.Add(24*time.Hour))
}

func TestNormalizeDefaultsAndAll(t *testing.T) {
	a, _ := newAdvisor(t)
	c, err := a.Normalize(api.AdviseConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Regions) != 0 || len(c.Products) != 0 || c.N != DefaultN {
		t.Errorf("zero constraints normalized to %+v, want unrestricted with N=%d", c, DefaultN)
	}
	c, err = a.Normalize(api.AdviseConstraints{Regions: []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Regions) != 0 {
		t.Errorf(`regions ["all"] normalized to %v, want unrestricted`, c.Regions)
	}
	// Duplicates collapse and the set sorts, so a region named twice is
	// scanned once.
	c, err = a.Normalize(api.AdviseConstraints{Regions: []string{"us-west-2", "us-east-1", "us-west-2"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []market.Region{"us-east-1", "us-west-2"}
	if !reflect.DeepEqual(c.Regions, want) {
		t.Errorf("regions = %v, want %v", c.Regions, want)
	}
	// Products collapse and sort the same way.
	c, err = a.Normalize(api.AdviseConstraints{Products: []string{string(market.ProductWindows), string(market.ProductLinux), string(market.ProductWindows), string(market.ProductLinux)}})
	if err != nil {
		t.Fatal(err)
	}
	wantProducts := []market.Product{market.ProductLinux, market.ProductWindows}
	if !reflect.DeepEqual(c.Products, wantProducts) {
		t.Errorf("products = %v, want %v", c.Products, wantProducts)
	}
}

// TestNormalizeNamesFirstUnknown requires a rejection to name the first
// unknown entry in input order, not in sorted order, and "all" mixed with
// regions to be an unknown region.
func TestNormalizeNamesFirstUnknown(t *testing.T) {
	a, _ := newAdvisor(t)
	cases := []struct {
		in   api.AdviseConstraints
		want string
	}{
		{api.AdviseConstraints{Regions: []string{"us-east-1", "zz-mars-1", "aa-venus-1"}}, `advisor: bad constraint regions: unknown region "zz-mars-1"`},
		{api.AdviseConstraints{Regions: []string{"us-east-1", "all"}}, `advisor: bad constraint regions: unknown region "all"`},
		{api.AdviseConstraints{Products: []string{string(market.ProductLinux), "Plan9", "BeOS"}}, `advisor: bad constraint products: unknown product "Plan9"`},
	}
	for _, tc := range cases {
		if _, err := a.Normalize(tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("Normalize(%+v) = %v, want %s", tc.in, err, tc.want)
		}
	}
}

func TestNormalizeRejections(t *testing.T) {
	a, _ := newAdvisor(t)
	cases := []struct {
		name  string
		in    api.AdviseConstraints
		param string
	}{
		{"unknown region", api.AdviseConstraints{Regions: []string{"mars-north-1"}}, "regions"},
		{"unknown product", api.AdviseConstraints{Products: []string{"Plan9"}}, "products"},
		{"malformed glob", api.AdviseConstraints{InstanceTypes: "c3.["}, "instanceTypes"},
		{"negative vcpu", api.AdviseConstraints{MinVCPU: -1}, "minVCPU"},
		{"negative memory", api.AdviseConstraints{MinMemoryGB: -0.5}, "minMemoryGB"},
		{"negative price", api.AdviseConstraints{MaxPricePerHour: -1}, "maxPricePerHour"},
		{"interruption over 1", api.AdviseConstraints{MaxInterruptionRate: 1.5}, "maxInterruptionRate"},
		{"n over cap", api.AdviseConstraints{N: MaxN + 1}, "n"},
	}
	for _, tc := range cases {
		_, err := a.Normalize(tc.in)
		var bad *BadConstraintError
		if !errors.As(err, &bad) {
			t.Errorf("%s: err = %v, want *BadConstraintError", tc.name, err)
			continue
		}
		if bad.Param != tc.param {
			t.Errorf("%s: param = %q, want %q", tc.name, bad.Param, tc.param)
		}
	}
}

func TestAdviseRanksBySavingsAndIsDeterministic(t *testing.T) {
	a, db := newAdvisor(t)
	recordFlat(db, mktSmall, 0.02) // 85% off $0.133
	recordFlat(db, mktMid, 0.20)   // 25% off $0.266
	recordFlat(db, mktBig, 0.05)   // 88% off $0.420

	got := advise(t, a, api.AdviseConstraints{})
	if len(got) != 3 {
		t.Fatalf("candidates = %d, want 3", len(got))
	}
	wantOrder := []string{mktBig.String(), mktSmall.String(), mktMid.String()}
	for i, w := range wantOrder {
		if got[i].Market != w {
			t.Fatalf("rank %d = %s, want %s (full: %+v)", i+1, got[i].Market, w, got)
		}
		if got[i].Rank != i+1 {
			t.Errorf("rank field = %d, want %d", got[i].Rank, i+1)
		}
	}
	if got[0].VCPU != 8 || math.Abs(got[0].MemoryGB-15.0) > 1e-9 {
		t.Errorf("c3.2xlarge capacity = %d vCPU / %g GB, want 8 / 15", got[0].VCPU, got[0].MemoryGB)
	}
	if math.Abs(got[1].SpotPriceMean-0.02) > 1e-9 || math.Abs(got[1].OnDemandPrice-0.133) > 1e-9 {
		t.Errorf("m3.large prices = %+v", got[1])
	}

	// Same evidence, fresh advisor: byte-identical ranking.
	again := advise(t, New(db, market.New()), api.AdviseConstraints{})
	if !reflect.DeepEqual(got, again) {
		t.Errorf("re-ranking diverged:\n  first  %+v\n  second %+v", got, again)
	}
}

func TestAdviseTieBreaksOnMarketID(t *testing.T) {
	a, db := newAdvisor(t)
	// Two zones of the same type at the same price: identical statistics.
	east := market.SpotID{Zone: "us-east-1a", Type: "c3.2xlarge", Product: market.ProductLinux}
	recordFlat(db, east, 0.05)
	recordFlat(db, mktBig, 0.05) // us-east-1d
	got := advise(t, a, api.AdviseConstraints{})
	if len(got) != 2 || got[0].Market != east.String() || got[1].Market != mktBig.String() {
		t.Errorf("tie order = %+v, want market-ID ascending", got)
	}
}

func TestAdviseConstraintFiltering(t *testing.T) {
	a, db := newAdvisor(t)
	recordFlat(db, mktSmall, 0.02)
	recordFlat(db, mktMid, 0.03)
	recordFlat(db, mktBig, 0.30)
	recordFlat(db, mktWest, 0.05)

	// Capacity floor: 2-vCPU m3.large drops out.
	got := advise(t, a, api.AdviseConstraints{MinVCPU: 4})
	for _, c := range got {
		if c.Market == mktSmall.String() {
			t.Errorf("MinVCPU=4 kept 2-vCPU %s", c.Market)
		}
	}
	if len(got) != 3 {
		t.Errorf("MinVCPU=4 candidates = %d, want 3", len(got))
	}

	// Memory floor: the 7.5 GB m3.large drops out; the 15 GB m3.xlarge
	// and c3.2xlarge markets survive.
	got = advise(t, a, api.AdviseConstraints{MinMemoryGB: 10})
	if len(got) != 3 {
		t.Errorf("MinMemoryGB=10 candidates = %v, want 3", got)
	}
	for _, c := range got {
		if c.Market == mktSmall.String() {
			t.Errorf("MinMemoryGB=10 kept 7.5 GB %s", c.Market)
		}
	}

	// Price ceiling on the window mean.
	got = advise(t, a, api.AdviseConstraints{MaxPricePerHour: 0.04})
	if len(got) != 2 {
		t.Errorf("MaxPricePerHour=0.04 candidates = %v, want 2", got)
	}

	// Region restriction.
	got = advise(t, a, api.AdviseConstraints{Regions: []string{"us-west-2"}})
	if len(got) != 1 || got[0].Market != mktWest.String() {
		t.Errorf("us-west-2 candidates = %v, want only %s", got, mktWest)
	}

	// Type glob.
	got = advise(t, a, api.AdviseConstraints{InstanceTypes: "m3.*"})
	if len(got) != 2 {
		t.Errorf("m3.* candidates = %v, want 2", got)
	}

	// Impossible floor: a valid empty answer, not an error.
	got = advise(t, a, api.AdviseConstraints{MinVCPU: 1000})
	if len(got) != 0 {
		t.Errorf("impossible floor candidates = %v, want none", got)
	}

	// N truncates after ranking.
	got = advise(t, a, api.AdviseConstraints{N: 2})
	if len(got) != 2 || got[0].Rank != 1 || got[1].Rank != 2 {
		t.Errorf("N=2 candidates = %+v, want the renumbered top 2", got)
	}
}

func TestAdviseRequiresWindowEvidence(t *testing.T) {
	a, db := newAdvisor(t)
	// Priced only before the window: not a candidate inside it.
	db.RecordPrice(mktSmall, store.PricePoint{At: t0.Add(-time.Hour), Price: 0.02})
	if got := advise(t, a, api.AdviseConstraints{}); len(got) != 0 {
		t.Errorf("candidates without in-window samples = %v, want none", got)
	}
}

func TestAdviseInterruptionAndOutageSignals(t *testing.T) {
	a, db := newAdvisor(t)
	recordFlat(db, mktSmall, 0.02)
	recordFlat(db, mktMid, 0.02)
	// mktMid crosses the OD price 6 times in 24h: interruption 0.25/h.
	for i := 0; i < 6; i++ {
		db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Duration(i)*time.Hour + 30*time.Minute), Market: mktMid, Ratio: 1.4})
	}
	got := advise(t, a, api.AdviseConstraints{})
	if len(got) != 2 || got[0].Market != mktSmall.String() {
		t.Fatalf("ranking = %+v, want the uncrossed market first", got)
	}
	if math.Abs(got[1].InterruptionRate-0.25) > 1e-9 || got[1].Crossings != 6 {
		t.Errorf("crossed market signals = %+v, want 6 crossings at 0.25/h", got[1])
	}

	// The interruption ceiling drops the spiky market entirely.
	got = advise(t, a, api.AdviseConstraints{MaxInterruptionRate: 0.1})
	if len(got) != 1 || got[0].Market != mktSmall.String() {
		t.Errorf("MaxInterruptionRate=0.1 candidates = %+v, want only the calm market", got)
	}

	// An outage open at the window end halves the score and flags the row.
	clean := got[0].Score
	db.AppendProbe(store.ProbeRecord{At: t0.Add(23 * time.Hour), Market: mktSmall, Kind: store.ProbeSpot, Rejected: true, Code: "x"})
	got = advise(t, a, api.AdviseConstraints{MaxInterruptionRate: 0.1})
	if len(got) != 1 || !got[0].LiveOutage {
		t.Fatalf("live-outage candidates = %+v, want the flagged market", got)
	}
	if got[0].Score >= clean {
		t.Errorf("live-outage score = %g, want below the clean %g", got[0].Score, clean)
	}
	if got[0].SpotUnavailability <= 0 {
		t.Errorf("SpotUnavailability = %g, want > 0 with an open outage", got[0].SpotUnavailability)
	}
}

// TestAdviseBoundRunsNoFoldFirst counts the markets a rank folds by hand.
// Five zones' c3.2xlarge markets hold flat prices: us-east-1b, adopted
// first, and us-east-1a, adopted next with one crossing, at $0.05; the
// rest, adopted after, at $0.10. With n = 1, us-east-1b is kept.
// us-east-1a's best case — no crossing, no outage, its price floor — ranks
// at least level with it, so us-east-1a is folded, and its crossing then
// loses. Every later market's best case already loses on price, so it is
// skipped before any fold. A bound that read the real crossings first
// would skip us-east-1a too, having folded it all the same.
func TestAdviseBoundRunsNoFoldFirst(t *testing.T) {
	a, db := newAdvisor(t)
	var ids []market.SpotID
	for i, z := range []market.Zone{"us-east-1b", "us-east-1a", "us-east-1c", "us-east-1d", "us-east-1e"} {
		id := market.SpotID{Zone: z, Type: "c3.2xlarge", Product: market.ProductLinux}
		price := 0.10
		if i < 2 {
			price = 0.05
		}
		recordFlat(db, id, price)
		ids = append(ids, id)
	}
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: ids[1], Ratio: 2})
	got := advise(t, a, api.AdviseConstraints{N: 1})
	if len(got) != 1 || got[0].Market != ids[0].String() {
		t.Fatalf("ranking = %+v, want %v alone", got, ids[0])
	}
	if folded := a.MarketsFolded(); folded != 2 {
		t.Errorf("rank folded %d markets, want 2", folded)
	}
}
