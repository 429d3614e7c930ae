package demand

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/simtime"
)

func newTestModel(t *testing.T, seed uint64) (*market.Catalog, *Model) {
	t.Helper()
	cat := market.New()
	m, err := NewModel(cat, Config{Seed: seed, Tick: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return cat, m
}

func TestNewModelValidation(t *testing.T) {
	cat := market.New()
	if _, err := NewModel(cat, Config{Seed: 1, Tick: 0}); err == nil {
		t.Error("NewModel accepted zero tick")
	}
	if _, err := NewModel(cat, Config{Seed: 1, Tick: -time.Second}); err == nil {
		t.Error("NewModel accepted negative tick")
	}
}

func TestModelCardinality(t *testing.T) {
	cat, m := newTestModel(t, 1)
	if len(m.pools) != len(cat.Pools()) {
		t.Errorf("%d pools, want %d", len(m.pools), len(cat.Pools()))
	}
	if len(m.markets) != len(cat.SpotMarkets()) || len(m.Params()) != len(cat.SpotMarkets()) {
		t.Errorf("%d markets and %d params, want %d", len(m.markets), len(m.Params()), len(cat.SpotMarkets()))
	}
}

// TestIndexRoundTrip: pool i is the catalog's pool i, so the simulator
// can name a pool by the catalog alone.
func TestIndexRoundTrip(t *testing.T) {
	cat, m := newTestModel(t, 1)
	for i, pid := range cat.Pools() {
		if m.pools[i].id != pid {
			t.Errorf("pool %d is %v, want %v", i, m.pools[i].id, pid)
		}
	}
}

func TestMarketPoolIndexConsistent(t *testing.T) {
	cat, m := newTestModel(t, 1)
	for i := 0; i < len(cat.SpotMarkets()); i += 97 {
		sid := cat.SpotMarkets()[i]
		if got := cat.Pools()[m.MarketPoolIndex(i)]; got != sid.Pool() {
			t.Errorf("market %v mapped to pool %v, want %v", sid, got, sid.Pool())
		}
	}
}

// stepDays advances the model n simulated days and invokes visit each tick.
func stepDays(m *Model, start time.Time, days int, tick time.Duration, visit func(now time.Time)) {
	steps := int(time.Duration(days) * 24 * time.Hour / tick)
	now := start
	for s := 0; s < steps; s++ {
		now = now.Add(tick)
		m.Step(now)
		if visit != nil {
			visit(now)
		}
	}
}

func TestInvariantsOverTime(t *testing.T) {
	_, m := newTestModel(t, 2)
	stepDays(m, simtime.StudyEpoch, 3, 5*time.Minute, func(time.Time) {
		for i := 0; i < len(m.pools); i += 13 {
			pd := m.PoolAt(i)
			if pd.ReservedGranted < 0 || pd.ReservedGranted > 1 {
				t.Fatalf("pool %v: ReservedGranted=%v out of [0,1]", m.pools[i].id, pd.ReservedGranted)
			}
			if pd.ReservedRunning < 0 || pd.ReservedRunning > pd.ReservedGranted+1e-9 {
				t.Fatalf("pool %v: ReservedRunning=%v exceeds granted %v", m.pools[i].id, pd.ReservedRunning, pd.ReservedGranted)
			}
			if pd.OnDemandDesired < 0 || pd.OnDemandDesired > 1.2 {
				t.Fatalf("pool %v: OnDemandDesired=%v out of range", m.pools[i].id, pd.OnDemandDesired)
			}
		}
		for i := 0; i < len(m.markets); i += 211 {
			ms := m.MarketAt(i)
			if ms.DemandFrac < 0 || math.IsNaN(ms.DemandFrac) {
				t.Fatalf("market %d: bad DemandFrac %v", i, ms.DemandFrac)
			}
			if ms.PriceScale <= 0 || math.IsNaN(ms.PriceScale) {
				t.Fatalf("market %d: bad PriceScale %v", i, ms.PriceScale)
			}
		}
	})
}

func TestDeterminism(t *testing.T) {
	_, m1 := newTestModel(t, 77)
	_, m2 := newTestModel(t, 77)
	stepDays(m1, simtime.StudyEpoch, 1, 5*time.Minute, nil)
	stepDays(m2, simtime.StudyEpoch, 1, 5*time.Minute, nil)
	for i := 0; i < len(m1.pools); i++ {
		if m1.PoolAt(i) != m2.PoolAt(i) {
			t.Fatalf("pool %d diverged under equal seeds", i)
		}
	}
	for i := 0; i < len(m1.markets); i++ {
		if m1.MarketAt(i) != m2.MarketAt(i) {
			t.Fatalf("market %d diverged under equal seeds", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	_, m1 := newTestModel(t, 1)
	_, m2 := newTestModel(t, 2)
	stepDays(m1, simtime.StudyEpoch, 1, 5*time.Minute, nil)
	stepDays(m2, simtime.StudyEpoch, 1, 5*time.Minute, nil)
	same := 0
	for i := 0; i < len(m1.pools); i++ {
		if m1.PoolAt(i) == m2.PoolAt(i) {
			same++
		}
	}
	if same == len(m1.pools) {
		t.Error("different seeds produced identical demand")
	}
}

// TestProvisioningOrdering checks the calibration core of §5.2.2: pools in
// under-provisioned regions exceed their on-demand capacity bound far more
// often than pools in the best-provisioned region.
func TestProvisioningOrdering(t *testing.T) {
	cat, m := newTestModel(t, 3)
	saturated := make(map[market.Region]int)
	samples := make(map[market.Region]int)
	stepDays(m, simtime.StudyEpoch, 7, 5*time.Minute, func(time.Time) {
		for i := range m.pools {
			pd := m.PoolAt(i)
			r := m.pools[i].id.Zone.RegionOf()
			samples[r]++
			if pd.OnDemandDesired >= 1-pd.ReservedGranted {
				saturated[r]++
			}
		}
	})
	rate := func(r market.Region) float64 {
		if samples[r] == 0 {
			return 0
		}
		return float64(saturated[r]) / float64(samples[r])
	}
	if rate("sa-east-1") <= rate("us-east-1") {
		t.Errorf("sa-east-1 saturation %.4f should exceed us-east-1 %.4f",
			rate("sa-east-1"), rate("us-east-1"))
	}
	if rate("us-east-1") > 0.02 {
		t.Errorf("us-east-1 saturation %.4f too high for a well-provisioned region", rate("us-east-1"))
	}
	if rate("sa-east-1") == 0 {
		t.Error("sa-east-1 never saturated in a week; demand model too tame")
	}
	_ = cat
}

func TestSupplySharesSumToOnePerPool(t *testing.T) {
	cat, m := newTestModel(t, 1)
	byPool := make(map[market.PoolID]float64)
	for i, p := range m.Params() {
		byPool[cat.SpotMarkets()[i].Pool()] += p.SupplyShare
	}
	if len(byPool) != len(cat.Pools()) {
		t.Fatalf("markets cover %d pools, want %d", len(byPool), len(cat.Pools()))
	}
	for pid, sum := range byPool {
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("pool %v supply shares sum to %v, want 1", pid, sum)
		}
	}
}

func TestStaticParamsRanges(t *testing.T) {
	cat, m := newTestModel(t, 1)
	volatile := 0
	for i, p := range m.Params() {
		if p.FloorFrac < 0.05 || p.FloorFrac > 0.15 {
			t.Fatalf("market %v FloorFrac %v out of range", cat.SpotMarkets()[i], p.FloorFrac)
		}
		if p.CNABase < 0 || p.CNABase > 0.3 {
			t.Fatalf("market %v CNABase %v out of range", cat.SpotMarkets()[i], p.CNABase)
		}
		if p.SigmaClass < 0 || p.SigmaClass > 2 {
			t.Fatalf("market %v SigmaClass %d out of range", cat.SpotMarkets()[i], p.SigmaClass)
		}
		if p.Volatile {
			volatile++
			if p.SigmaClass != 2 {
				t.Fatalf("volatile market %v has SigmaClass %d, want 2", cat.SpotMarkets()[i], p.SigmaClass)
			}
		}
	}
	frac := float64(volatile) / float64(len(m.Params()))
	if frac < 0.10 || frac > 0.20 {
		t.Errorf("volatile market fraction = %.3f, want ~0.15", frac)
	}
}

func TestDiurnalShape(t *testing.T) {
	// Peak at 14:00 local, trough at 02:00 local.
	peak := time.Date(2015, 9, 2, 14, 0, 0, 0, time.UTC)
	trough := time.Date(2015, 9, 2, 2, 0, 0, 0, time.UTC)
	if d := diurnal(peak, 0); math.Abs(d-1) > 1e-9 {
		t.Errorf("diurnal at 14:00 = %v, want 1", d)
	}
	if d := diurnal(trough, 0); math.Abs(d+1) > 1e-9 {
		t.Errorf("diurnal at 02:00 = %v, want -1", d)
	}
}

func TestWeeklyShape(t *testing.T) {
	sat := time.Date(2015, 9, 5, 12, 0, 0, 0, time.UTC) // Saturday
	wed := time.Date(2015, 9, 2, 12, 0, 0, 0, time.UTC) // Wednesday
	if weekly(sat) >= weekly(wed) {
		t.Errorf("weekend load %v should be below weekday load %v", weekly(sat), weekly(wed))
	}
}

func TestSpikeDurationTail(t *testing.T) {
	rng := rand.New(seededPCG(9, "duration-test"))
	n := 20000
	over1h, over10h := 0, 0
	for i := 0; i < n; i++ {
		d := spikeDuration(rng)
		if d < 2*time.Minute {
			t.Fatalf("duration %v below the 2-minute floor", d)
		}
		if d > time.Hour {
			over1h++
		}
		if d > 10*time.Hour {
			over10h++
		}
	}
	p1h := float64(over1h) / float64(n)
	p10h := float64(over10h) / float64(n)
	// Fig 5.9 targets: ~17% of outages exceed one hour, ~5% exceed ten.
	if p1h < 0.08 || p1h > 0.35 {
		t.Errorf("P(duration > 1h) = %.3f, want within [0.08, 0.35]", p1h)
	}
	if p10h < 0.005 || p10h > 0.12 {
		t.Errorf("P(duration > 10h) = %.3f, want within [0.005, 0.12]", p10h)
	}
}

func TestPruneSpikes(t *testing.T) {
	now := simtime.StudyEpoch.UnixNano()
	ss := []spike{
		{end: now - int64(time.Minute), mag: 1},
		{end: now + int64(time.Minute), mag: 2},
		{end: now, mag: 3}, // exactly-now expires
	}
	out := pruneSpikes(ss, now)
	if len(out) != 1 || out[0].mag != 2 {
		t.Errorf("pruneSpikes = %+v, want the single live spike", out)
	}
}
