package analysis

import (
	"math"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// spotProbe injects one periodic CheckCapacity observation.
func spotProbe(db *store.Store, m market.SpotID, ratio float64, rejected bool) {
	code := ""
	if rejected {
		code = "capacity-not-available"
	}
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: m, Kind: store.ProbeSpot,
		Trigger: store.TriggerPeriodicSpot, TriggerMarket: m,
		PriceRatio: ratio, Rejected: rejected, Code: code,
	})
}

func TestFig510CumulativeBins(t *testing.T) {
	db := store.New()
	spotProbe(db, mktA, 0.05, true)  // very low price, rejected
	spotProbe(db, mktA, 0.05, false) // very low price, ok
	spotProbe(db, mktA, 0.3, false)  // mid price, ok
	spotProbe(db, mktA, 1.5, false)  // above od, ok

	res := Fig510SpotUnavailability(db)
	// Bin "<1/10X" (index 0): the two 0.05 probes -> 50% rejected.
	if res.AllSamples[0] != 2 || math.Abs(res.AllPct[0]-50) > 1e-9 {
		t.Errorf("<1/10X = %.2f%% over %d, want 50%% over 2", res.AllPct[0], res.AllSamples[0])
	}
	// Bin "<1X" (index 9) is cumulative: 3 probes, 1 rejected.
	if res.AllSamples[9] != 3 || math.Abs(res.AllPct[9]-100.0/3) > 1e-9 {
		t.Errorf("<1X = %.2f%% over %d, want 33.3%% over 3", res.AllPct[9], res.AllSamples[9])
	}
	// Bin ">1X" (index 10): the 1.5 probe, not rejected.
	if res.AllSamples[10] != 1 || res.AllPct[10] != 0 {
		t.Errorf(">1X = %.2f%% over %d, want 0%% over 1", res.AllPct[10], res.AllSamples[10])
	}
	if len(res.Regions) != 1 || res.Regions[0] != "us-east-1" {
		t.Errorf("regions = %v", res.Regions)
	}
}

func TestFig510IgnoresTriggeredProbes(t *testing.T) {
	db := store.New()
	// A cross probe must not bias the unbiased CheckCapacity stream.
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: mktA, Kind: store.ProbeSpot,
		Trigger: store.TriggerCross, TriggerMarket: mktA,
		PriceRatio: 0.05, Rejected: true, Code: "capacity-not-available",
	})
	res := Fig510SpotUnavailability(db)
	for _, n := range res.AllSamples {
		if n != 0 {
			t.Fatalf("triggered probe leaked into Fig 5.10: %+v", res.AllSamples)
		}
	}
}

func TestFig511Distribution(t *testing.T) {
	db := store.New()
	spotProbe(db, mktA, 0.05, true) // us-east-1, lowest bin
	spotProbe(db, mktA, 0.6, true)  // us-east-1, 1/2-1X bin
	spotProbe(db, mktB, 0.05, true) // sa-east-1, lowest bin
	spotProbe(db, mktA, 1.5, true)  // above od
	spotProbe(db, mktA, 0.05, false)

	res := Fig511SpotInsufficiencyDist(db)
	if res.Total != 4 {
		t.Fatalf("total = %d, want 4", res.Total)
	}
	if math.Abs(res.BelowODPct-75) > 1e-9 {
		t.Errorf("below-od share = %v, want 75", res.BelowODPct)
	}
	byRegion := make(map[market.Region][]float64)
	for i, r := range res.Regions {
		byRegion[r] = res.SharePct[i]
	}
	if got := byRegion["us-east-1"][0]; math.Abs(got-25) > 1e-9 {
		t.Errorf("us-east-1 lowest bin = %v, want 25", got)
	}
	last := len(RatioRangeLabels()) - 1
	if got := byRegion["us-east-1"][last]; math.Abs(got-25) > 1e-9 {
		t.Errorf("us-east-1 >1X bin = %v, want 25", got)
	}
	if got := byRegion["sa-east-1"][0]; math.Abs(got-25) > 1e-9 {
		t.Errorf("sa-east-1 lowest bin = %v, want 25", got)
	}
}

func TestFig512Pairs(t *testing.T) {
	db := store.New()
	// OD detection on A at t0.
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: mktA, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerSpike, TriggerMarket: mktA,
		Rejected: true, Code: "x",
	})
	// Related od rejection (od-od pair) 5 minutes later.
	db.AppendProbe(store.ProbeRecord{
		At: t0.Add(5 * time.Minute), Market: mktC, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerRelatedSameZone, TriggerMarket: mktA,
		SourceKind: store.ProbeOnDemand, Rejected: true, Code: "x",
	})
	// Related spot rejection (od-spot pair) 40 minutes later.
	db.AppendProbe(store.ProbeRecord{
		At: t0.Add(40 * time.Minute), Market: mktC, Kind: store.ProbeSpot,
		Trigger: store.TriggerRelatedOtherZone, TriggerMarket: mktA,
		SourceKind: store.ProbeOnDemand, Rejected: true, Code: "capacity-not-available",
	})
	// Spot detection on B with no related follow-ups. The rejected probe
	// must carry a periodic trigger so it opens a spot outage.
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: mktB, Kind: store.ProbeSpot,
		Trigger: store.TriggerPeriodicSpot, TriggerMarket: mktB,
		Rejected: true, Code: "capacity-not-available",
	})

	res := Fig512CrossKind(db, []time.Duration{300 * time.Second, 3600 * time.Second})
	if res.ODDetections != 1 || res.SpotDetections != 1 {
		t.Fatalf("detections = od %d spot %d, want 1/1", res.ODDetections, res.SpotDetections)
	}
	// 300 s: od-od caught (5 min = 300 s exactly), od-spot missed.
	if got := res.ODtoOD[0]; math.Abs(got-100) > 1e-9 {
		t.Errorf("od-od @300s = %v, want 100", got)
	}
	if got := res.ODToSpot[0]; got != 0 {
		t.Errorf("od-spot @300s = %v, want 0", got)
	}
	// 3600 s: both pairs caught.
	if got := res.ODToSpot[1]; math.Abs(got-100) > 1e-9 {
		t.Errorf("od-spot @3600s = %v, want 100", got)
	}
	if res.SpotToSpot[1] != 0 || res.SpotToOD[1] != 0 {
		t.Errorf("spot pairs = %v/%v, want 0/0", res.SpotToSpot[1], res.SpotToOD[1])
	}
}

func TestRatioRangeIndex(t *testing.T) {
	tests := []struct {
		ratio float64
		want  int
	}{
		{0.05, 0},
		{0.105, 1}, // between 1/10 and 1/9
		{0.6, 9},   // between 1/2 and 1
		{1.5, 10},
	}
	for _, tt := range tests {
		if got := ratioRangeIndex(tt.ratio); got != tt.want {
			t.Errorf("ratioRangeIndex(%v) = %d, want %d", tt.ratio, got, tt.want)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	db := store.New()
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	spotProbe(db, mktA, 0.05, true)
	odOutage(db, mktA, t0.Add(time.Minute), t0.Add(10*time.Minute))

	var sb strings.Builder
	if err := Fig54GlobalUnavailability(db, nil).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig55RegionRejectShare(db).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig56RegionUnavailability(db, 0).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig57TriggerBreakdown(db).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig58CrossAZ(db, nil).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig59OutageDurationCDF(db).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig510SpotUnavailability(db).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig511SpotInsufficiencyDist(db).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Fig512CrossKind(db, nil).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable21(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{">10X", "us-east-1", "Spot Blocks", "od-od%", "duration_hours"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
