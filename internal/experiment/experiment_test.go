package experiment

import (
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

var (
	shortOnce sync.Once
	shortSt   *Study
	shortErr  error
)

// runShortStudy runs a 2-day study once and shares it across integration
// assertions (a full study per test would dominate the suite's runtime).
// Tests must treat the returned study as read-only.
func runShortStudy(t *testing.T) *Study {
	t.Helper()
	shortOnce.Do(func() {
		shortSt, shortErr = Run(Config{Seed: 11, Days: 2})
	})
	if shortErr != nil {
		t.Fatal(shortErr)
	}
	return shortSt
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Days: -1}); err == nil {
		t.Error("negative days accepted")
	}
}

func TestStudyCoversWindow(t *testing.T) {
	st := runShortStudy(t)
	from, to := st.Window()
	if got := to.Sub(from); got != 48*time.Hour {
		t.Errorf("window = %v, want 48h", got)
	}
}

func TestStudyProducesSignal(t *testing.T) {
	st := runShortStudy(t)

	if got := st.DB.ProbeCount(); got == 0 {
		t.Error("no probes issued in 2 days")
	}
	if got := len(st.DB.Spikes()); got == 0 {
		t.Error("no spike events observed in 2 days")
	}
	stats := st.Svc.Stats()
	if stats.ODProbes == 0 {
		t.Error("no on-demand probes")
	}
	if stats.SpotProbes == 0 {
		t.Error("no spot probes")
	}
	if st.Svc.Spent() <= 0 {
		t.Error("probing spent nothing; budget accounting is broken")
	}
	if st.Sim.ClientCost() <= 0 {
		t.Error("the platform charged nothing; billing is broken")
	}
	// SpotLight's own spend estimate must be in the same ballpark as the
	// platform's authoritative bill (estimates differ because rejected
	// probes are refunded and spot rates move).
	ratio := st.Svc.Spent() / st.Sim.ClientCost()
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("spend estimate %v vs platform bill %v: ratio %.2f out of range",
			st.Svc.Spent(), st.Sim.ClientCost(), ratio)
	}
}

func TestWatchedMarketsGetDenseTraces(t *testing.T) {
	st := runShortStudy(t)
	for _, id := range TracedMarkets() {
		pts := st.DB.Prices(id)
		// 2 days at 5-minute ticks = 576 observations; a dense trace
		// records every change, so expect at least dozens of points.
		if len(pts) < 20 {
			t.Errorf("traced market %v has only %d price points", id, len(pts))
		}
	}
}

func TestDeterministicStudies(t *testing.T) {
	a, err := Run(Config{Seed: 5, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 5, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.DB.ProbeCount() != b.DB.ProbeCount() {
		t.Errorf("probe counts diverged: %d vs %d", a.DB.ProbeCount(), b.DB.ProbeCount())
	}
	if len(a.DB.Spikes()) != len(b.DB.Spikes()) {
		t.Errorf("spike counts diverged: %d vs %d", len(a.DB.Spikes()), len(b.DB.Spikes()))
	}
	if a.Svc.Spent() != b.Svc.Spent() {
		t.Errorf("spend diverged: %v vs %v", a.Svc.Spent(), b.Svc.Spent())
	}
}

func TestRestrictedRegions(t *testing.T) {
	st, err := Run(Config{
		Seed:    3,
		Days:    1,
		Regions: []market.Region{"sa-east-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.DB.Probes() {
		if p.Market.Region() != "sa-east-1" {
			t.Fatalf("probe left the restricted region: %v", p.Market)
		}
	}
	for _, sp := range st.DB.Spikes() {
		if sp.Market.Region() != "sa-east-1" {
			t.Fatalf("spike event left the restricted region: %v", sp.Market)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var days []int
	_, err := Run(Config{
		Seed: 2,
		Days: 2,
		Progress: func(day, total int) {
			days = append(days, day)
			if total != 2 {
				t.Errorf("total = %d, want 2", total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 2 || days[0] != 1 || days[1] != 2 {
		t.Errorf("progress days = %v, want [1 2]", days)
	}
}

func TestGroundTruthAndDetectionOverlap(t *testing.T) {
	st := runShortStudy(t)
	truth := st.Sim.TrueOutages()
	if len(truth) == 0 {
		t.Skip("no ground-truth outages in this short window")
	}
	// Every *detected* od outage should overlap some ground-truth outage
	// of its pool: SpotLight must not hallucinate unavailability.
	detected := 0
	matched := 0
	for _, d := range st.DB.Outages() {
		if d.Kind != store.ProbeOnDemand {
			continue
		}
		detected++
		for _, g := range truth {
			if g.Pool != d.Market.Pool() {
				continue
			}
			end := d.End
			if end.IsZero() {
				end = st.End
			}
			if g.Start.Before(end) && (g.End.IsZero() || g.End.After(d.Start)) {
				matched++
				break
			}
		}
	}
	if detected > 0 && matched < detected {
		t.Errorf("only %d of %d detected outages match ground truth", matched, detected)
	}
}

func TestCaseStudyMarketsAreSix(t *testing.T) {
	ms := CaseStudyMarkets()
	if len(ms) != 6 {
		t.Fatalf("case study markets = %d, want 6", len(ms))
	}
	cat := market.New()
	for _, m := range ms {
		if _, ok := cat.SpotIndex(m); !ok {
			t.Errorf("case study market %v not in catalog", m)
		}
	}
}
