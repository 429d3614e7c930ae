package analysis

import (
	"math"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

var (
	mktA = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	mktB = market.SpotID{Zone: "sa-east-1a", Type: "m3.large", Product: market.ProductLinux}
	mktC = market.SpotID{Zone: "us-east-1a", Type: "c3.2xlarge", Product: market.ProductLinux}
	t0   = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
)

// odOutage injects a detected on-demand outage [start, end) via probes.
func odOutage(db *store.Store, m market.SpotID, start, end time.Time) {
	db.AppendProbe(store.ProbeRecord{
		At: start, Market: m, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerSpike, TriggerMarket: m,
		Rejected: true, Code: "InsufficientInstanceCapacity",
	})
	db.AppendProbe(store.ProbeRecord{
		At: end, Market: m, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerRecheck, TriggerMarket: m,
	})
}

func TestFig54Correlation(t *testing.T) {
	db := store.New()
	// Spike on A at t0 with ratio 2.5; outage follows 5 minutes later.
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 2.5})
	odOutage(db, mktA, t0.Add(5*time.Minute), t0.Add(10*time.Minute))
	// Spike on B with ratio 1.5 and no outage.
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktB, Ratio: 1.5})

	res := Fig54GlobalUnavailability(db, []time.Duration{900 * time.Second})
	if len(res.UnavailabilityPct) != 1 {
		t.Fatalf("windows = %d", len(res.UnavailabilityPct))
	}
	row := res.UnavailabilityPct[0]
	samples := res.Samples[0]
	// >0: both spikes, one correlated -> 50%.
	if samples[0] != 2 || math.Abs(row[0]-50) > 1e-9 {
		t.Errorf(">0 cell = %.2f%% over %d, want 50%% over 2", row[0], samples[0])
	}
	// >2: only the 2.5x spike -> 100%.
	if samples[2] != 1 || math.Abs(row[2]-100) > 1e-9 {
		t.Errorf(">2X cell = %.2f%% over %d, want 100%% over 1", row[2], samples[2])
	}
	// >3: no spikes.
	if samples[3] != 0 || row[3] != 0 {
		t.Errorf(">3X cell = %.2f%% over %d, want empty", row[3], samples[3])
	}
}

func TestFig54ClustersCorrelatedSpikes(t *testing.T) {
	db := store.New()
	// Two correlated spikes of the same market 5 minutes apart within a
	// 900 s window: only the first may count.
	odOutage(db, mktA, t0, t0.Add(30*time.Minute))
	db.AppendSpike(store.SpikeEvent{At: t0.Add(1 * time.Minute), Market: mktA, Ratio: 2})
	db.AppendSpike(store.SpikeEvent{At: t0.Add(6 * time.Minute), Market: mktA, Ratio: 2})

	res := Fig54GlobalUnavailability(db, []time.Duration{900 * time.Second})
	if got := res.Samples[0][0]; got != 1 {
		t.Errorf("clustered samples = %d, want 1", got)
	}
	// With a tiny window the two spikes are separate events.
	res = Fig54GlobalUnavailability(db, []time.Duration{2 * time.Minute})
	if got := res.Samples[0][0]; got != 2 {
		t.Errorf("unclustered samples = %d, want 2", got)
	}
}

func TestFig56SeparatesRegions(t *testing.T) {
	db := store.New()
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktB, Ratio: 2})
	odOutage(db, mktB, t0.Add(time.Minute), t0.Add(10*time.Minute))

	res := Fig56RegionUnavailability(db, 900*time.Second)
	if len(res.Regions) != 2 {
		t.Fatalf("regions = %v", res.Regions)
	}
	byRegion := make(map[market.Region][]float64)
	for i, r := range res.Regions {
		byRegion[r] = res.UnavailabilityPct[i]
	}
	if got := byRegion["us-east-1"][0]; got != 0 {
		t.Errorf("us-east-1 unavailability = %v, want 0", got)
	}
	if got := byRegion["sa-east-1"][0]; math.Abs(got-100) > 1e-9 {
		t.Errorf("sa-east-1 unavailability = %v, want 100", got)
	}
}

func TestFig55Shares(t *testing.T) {
	db := store.New()
	add := func(m market.SpotID, ratio float64) {
		db.AppendProbe(store.ProbeRecord{
			At: t0, Market: m, Kind: store.ProbeOnDemand,
			Trigger: store.TriggerSpike, TriggerMarket: m,
			SpikeRatio: ratio, Rejected: true, Code: "x",
		})
	}
	add(mktA, 1.5) // us-east-1, bin 1X-2X
	add(mktB, 1.5) // sa-east-1, bin 1X-2X
	add(mktB, 12)  // sa-east-1, bin >10X

	res := Fig55RegionRejectShare(db)
	if res.Total != 3 {
		t.Fatalf("total = %d, want 3", res.Total)
	}
	byRegion := make(map[market.Region][]float64)
	for i, r := range res.Regions {
		byRegion[r] = res.SharePct[i]
	}
	bin1 := 1 // 1X-2X
	if got := byRegion["us-east-1"][bin1]; math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("us-east-1 share = %v, want 33.3", got)
	}
	if got := byRegion["sa-east-1"][len(spikeRanges)-1]; math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("sa-east-1 >10X share = %v, want 33.3", got)
	}
}

func TestFig57Breakdown(t *testing.T) {
	db := store.New()
	// One spike-triggered rejection, two related rejections in the same
	// 2X-3X bin: split 33/67.
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: mktA, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerSpike, TriggerMarket: mktA,
		SourceKind: store.ProbeSpot, SpikeRatio: 2.5, Rejected: true, Code: "x",
	})
	for _, m := range []market.SpotID{mktC, {Zone: "us-east-1d", Type: "c3.8xlarge", Product: market.ProductLinux}} {
		db.AppendProbe(store.ProbeRecord{
			At: t0.Add(time.Minute), Market: m, Kind: store.ProbeOnDemand,
			Trigger: store.TriggerRelatedSameZone, TriggerMarket: mktA,
			SourceKind: store.ProbeOnDemand, SpikeRatio: 2.5, Rejected: true, Code: "x",
		})
	}
	// A spot-sourced related rejection must not count in Fig 5.7.
	db.AppendProbe(store.ProbeRecord{
		At: t0.Add(time.Minute), Market: mktC, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerRelatedSameZone, TriggerMarket: mktA,
		SourceKind: store.ProbeSpot, SpikeRatio: 2.5, Rejected: true, Code: "x",
	})

	res := Fig57TriggerBreakdown(db)
	bin := spikeRangeIndex(2.5)
	if res.Samples[bin] != 3 {
		t.Fatalf("samples = %d, want 3", res.Samples[bin])
	}
	if math.Abs(res.BySpikePct[bin]-100.0/3) > 1e-9 {
		t.Errorf("by spikes = %v, want 33.3", res.BySpikePct[bin])
	}
	if math.Abs(res.ByRelatedPct[bin]-200.0/3) > 1e-9 {
		t.Errorf("by related = %v, want 66.7", res.ByRelatedPct[bin])
	}
}

func TestFig58CrossAZ(t *testing.T) {
	db := store.New()
	// Detection on A at t0 (ratio 2); cross-zone rejection 10 min later.
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: mktA, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerSpike, TriggerMarket: mktA,
		SpikeRatio: 2, Rejected: true, Code: "x",
	})
	db.AppendProbe(store.ProbeRecord{
		At: t0.Add(10 * time.Minute), Market: mktC, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerRelatedOtherZone, TriggerMarket: mktA,
		SourceKind: store.ProbeOnDemand, SpikeRatio: 2, Rejected: true, Code: "x",
	})
	// A second detection with no cross-zone follow-up.
	db.AppendProbe(store.ProbeRecord{
		At: t0.Add(2 * time.Hour), Market: mktB, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerSpike, TriggerMarket: mktB,
		SpikeRatio: 2, Rejected: true, Code: "x",
	})

	res := Fig58CrossAZ(db, []time.Duration{300 * time.Second, 900 * time.Second})
	// 300 s window misses the 10-minute follow-up: 0 of 2.
	if got := res.ProbabilityPct[0][0]; got != 0 {
		t.Errorf("300s probability = %v, want 0", got)
	}
	// 900 s window catches it: 1 of 2 = 50%.
	if got := res.ProbabilityPct[1][0]; math.Abs(got-50) > 1e-9 {
		t.Errorf("900s probability = %v, want 50", got)
	}
	if res.Samples[1][0] != 2 {
		t.Errorf("samples = %d, want 2", res.Samples[1][0])
	}
}

func TestFig59CDF(t *testing.T) {
	db := store.New()
	// Durations: 30m, 30m, 90m, 20h -> 50% at <=1h... plus marks beyond.
	odOutage(db, mktA, t0, t0.Add(30*time.Minute))
	odOutage(db, mktB, t0.Add(time.Hour), t0.Add(90*time.Minute))
	odOutage(db, mktC, t0, t0.Add(90*time.Minute))
	odOutage(db, mktA, t0.Add(3*time.Hour), t0.Add(23*time.Hour))

	res := Fig59OutageDurationCDF(db)
	if len(res.Durations) != 4 {
		t.Fatalf("durations = %d, want 4", len(res.Durations))
	}
	// Marks: index 1 is 1 hour -> 2 of 4 within.
	if got := res.CDFPct[1]; math.Abs(got-50) > 1e-9 {
		t.Errorf("CDF(1h) = %v, want 50", got)
	}
	// 2 hours -> 3 of 4 (the two 90-minute outages included).
	if got := res.CDFPct[2]; math.Abs(got-75) > 1e-9 {
		t.Errorf("CDF(2h) = %v, want 75", got)
	}
	// 32 hours -> everything.
	if got := res.CDFPct[6]; math.Abs(got-100) > 1e-9 {
		t.Errorf("CDF(32h) = %v, want 100", got)
	}
	// Ongoing outages are excluded.
	db2 := store.New()
	db2.AppendProbe(store.ProbeRecord{At: t0, Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	res2 := Fig59OutageDurationCDF(db2)
	if len(res2.Durations) != 0 {
		t.Errorf("ongoing outage counted: %v", res2.Durations)
	}
}

func TestSpikeRangeIndex(t *testing.T) {
	tests := []struct {
		ratio float64
		want  int
	}{
		{0.5, 0},
		{1, 1},
		{1.99, 1},
		{9.5, 9},
		{10, 10},
		{42, 10},
	}
	for _, tt := range tests {
		if got := spikeRangeIndex(tt.ratio); got != tt.want {
			t.Errorf("spikeRangeIndex(%v) = %d, want %d", tt.ratio, got, tt.want)
		}
	}
}

func TestSpikeThresholdLabel(t *testing.T) {
	if got := SpikeThresholdLabel(0); got != ">0" {
		t.Errorf("label(0) = %q", got)
	}
	if got := SpikeThresholdLabel(3); got != ">3X" {
		t.Errorf("label(3) = %q", got)
	}
}
