// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of SpotLight's design choices. Reported
// metrics carry the headline numbers of each figure so that
// `go test -bench=. -benchmem` reproduces the evaluation in one run:
//
//	BenchmarkTable2_1      — contract tradeoff table
//	BenchmarkFigure2_1     — spot price vs on-demand trace
//	BenchmarkFigure5_1a/b  — family and cross-zone price traces
//	BenchmarkFigure5_2     — BidSpread intrinsic prices
//	BenchmarkFigure5_3     — least bid to hold 1/3/6/12 h
//	BenchmarkFigure5_4..12 — the Chapter 5 availability study
//	BenchmarkFigure6_1/6_2 — the SpotCheck and SpotOn case studies
//	BenchmarkAblation*     — market-based vs naive probing, threshold,
//	                         sampling ratio, family fan-out
package spotlight_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/advisor"
	"spotlight/internal/analysis"
	"spotlight/internal/core"
	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// The shared study behind the figure benchmarks: 6 simulated days over
// the full catalog (the paper ran ~90 days; the shapes stabilize within
// a week and the benchmarks stay fast).
var (
	studyOnce sync.Once
	studySt   *experiment.Study
	studyErr  error
)

func benchStudy(b *testing.B) *experiment.Study {
	b.Helper()
	studyOnce.Do(func() {
		studySt, studyErr = experiment.Run(experiment.Config{Seed: 42, Days: 6})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studySt
}

func BenchmarkTable2_1(b *testing.B) {
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = len(analysis.Table21Contracts())
	}
	b.ReportMetric(float64(rows), "contract_rows")
}

func BenchmarkFigure2_1(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	id := market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	b.ReportAllocs()
	b.ResetTimer()
	var tr analysis.PriceTrace
	for i := 0; i < b.N; i++ {
		var err error
		tr, err = analysis.Fig21PriceTrace(st.DB, st.Cat, id, from, to)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*tr.AboveODFraction, "pct_samples_above_od")
	b.ReportMetric(tr.Max/tr.OnDemandPrice, "max_price_x_od")
}

func BenchmarkFigure5_1a(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	ids := []market.SpotID{
		{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.4xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.8xlarge", Product: market.ProductLinux},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var trs []analysis.PriceTrace
	for i := 0; i < b.N; i++ {
		var err error
		trs, err = analysis.Fig51Traces(st.DB, st.Cat, ids, from, to)
		if err != nil {
			b.Fatal(err)
		}
	}
	// The Fig 5.1a arbitrage observation: how often the 2xlarge
	// out-priced the 8xlarge in absolute dollars.
	inversions, samples := priceInversions(trs[0], trs[2])
	b.ReportMetric(100*inversions, "pct_price_inversions")
	b.ReportMetric(samples, "trace_points")
}

// priceInversions walks two traces and returns the fraction of hourly
// samples where the smaller type cost more in dollars than the larger.
func priceInversions(small, large analysis.PriceTrace) (frac, samples float64) {
	if len(small.Points) == 0 || len(large.Points) == 0 {
		return 0, 0
	}
	at := func(pts []store.PricePoint, t time.Time) float64 {
		cur := pts[0].Price
		for _, p := range pts {
			if p.At.After(t) {
				break
			}
			cur = p.Price
		}
		return cur
	}
	start := small.Points[0].At
	end := small.Points[len(small.Points)-1].At
	n, inv := 0, 0
	for t := start; !t.After(end); t = t.Add(time.Hour) {
		n++
		if at(small.Points, t) > at(large.Points, t) {
			inv++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(inv) / float64(n), float64(n)
}

func BenchmarkFigure5_1b(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	ids := []market.SpotID{
		{Zone: "us-east-1a", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1b", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var trs []analysis.PriceTrace
	for i := 0; i < b.N; i++ {
		var err error
		trs, err = analysis.Fig51Traces(st.DB, st.Cat, ids, from, to)
		if err != nil {
			b.Fatal(err)
		}
	}
	spread := 0.0
	for _, tr := range trs {
		if tr.Max > spread {
			spread = tr.Max
		}
	}
	b.ReportMetric(spread/trs[0].OnDemandPrice, "max_zone_price_x_od")
}

func BenchmarkFigure5_2(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig52
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig52IntrinsicPrice(st.DB, experiment.BidSpreadMarket())
	}
	b.ReportMetric(res.MeanAttempts, "mean_bid_attempts")
	b.ReportMetric(100*res.PremiumFraction, "pct_searches_with_premium")
}

func BenchmarkFigure5_3(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	id := market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	b.ReportAllocs()
	b.ResetTimer()
	var res analysis.Fig53
	for i := 0; i < b.N; i++ {
		var err error
		res, err = analysis.Fig53HoldPrices(st.DB, st.Cat, id, from, to, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mean least bid to hold 12 hours, in on-demand multiples — the
	// paper's point that holding needs a far higher bid than the spot
	// price suggests.
	mean12 := 0.0
	for _, v := range res.HoldPrice[len(res.Hours)-1] {
		mean12 += v
	}
	if n := len(res.HoldPrice[len(res.Hours)-1]); n > 0 {
		mean12 /= float64(n)
	}
	b.ReportMetric(mean12/res.OnDemandPrice, "mean_hold12h_bid_x_od")
}

func BenchmarkFigure5_4(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig54
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig54GlobalUnavailability(st.DB, nil)
	}
	b.ReportMetric(res.UnavailabilityPct[0][1], "pct_unavail_gt1x_w900")
	b.ReportMetric(res.UnavailabilityPct[0][5], "pct_unavail_gt5x_w900")
}

func BenchmarkFigure5_5(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig55
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig55RegionRejectShare(st.DB)
	}
	sa := 0.0
	for i, r := range res.Regions {
		if r == "sa-east-1" {
			for _, v := range res.SharePct[i] {
				sa += v
			}
		}
	}
	b.ReportMetric(sa, "sa_east_share_pct")
	b.ReportMetric(float64(res.Total), "rejected_probes")
}

func BenchmarkFigure5_6(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig56
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig56RegionUnavailability(st.DB, 0)
	}
	for i, r := range res.Regions {
		switch r {
		case "us-east-1":
			b.ReportMetric(res.UnavailabilityPct[i][1], "us_east_pct_gt1x")
		case "sa-east-1":
			b.ReportMetric(res.UnavailabilityPct[i][1], "sa_east_pct_gt1x")
		}
	}
}

func BenchmarkFigure5_7(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig57
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig57TriggerBreakdown(st.DB)
	}
	// Aggregate split across bins (paper: ~30% spikes / ~70% related).
	var spikes, related float64
	for bin, n := range res.Samples {
		spikes += res.BySpikePct[bin] * float64(n) / 100
		related += res.ByRelatedPct[bin] * float64(n) / 100
	}
	if total := spikes + related; total > 0 {
		b.ReportMetric(100*spikes/total, "pct_by_spikes")
		b.ReportMetric(100*related/total, "pct_by_related")
	}
}

func BenchmarkFigure5_8(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig58
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig58CrossAZ(st.DB, nil)
	}
	// 1-hour window at the lowest threshold (paper: ~24% falling to
	// ~12.5% as spikes grow).
	last := len(res.Windows) - 1
	b.ReportMetric(res.ProbabilityPct[last][0], "pct_crossaz_1h_gt0")
}

func BenchmarkFigure5_9(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig59
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig59OutageDurationCDF(st.DB)
	}
	b.ReportMetric(res.CDFPct[1], "pct_outages_under_1h")
	b.ReportMetric(float64(len(res.Durations)), "outage_samples")
}

func BenchmarkFigure5_10(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig510
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig510SpotUnavailability(st.DB)
	}
	b.ReportMetric(res.AllPct[0], "pct_cna_lowest_prices")
	b.ReportMetric(res.AllPct[9], "pct_cna_near_od")
}

func BenchmarkFigure5_11(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig511
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig511SpotInsufficiencyDist(st.DB)
	}
	b.ReportMetric(res.BelowODPct, "pct_rejections_below_od")
	b.ReportMetric(float64(res.Total), "spot_rejections")
}

func BenchmarkFigure5_12(b *testing.B) {
	st := benchStudy(b)
	var res analysis.Fig512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = analysis.Fig512CrossKind(st.DB, nil)
	}
	last := len(res.Windows) - 1
	b.ReportMetric(res.ODtoOD[last], "pct_od_od_1h")
	b.ReportMetric(res.SpotToSpot[last], "pct_spot_spot_1h")
	b.ReportMetric(res.ODToSpot[last], "pct_od_spot_1h")
	b.ReportMetric(res.SpotToOD[last], "pct_spot_od_1h")
}

func BenchmarkFigure6_1(b *testing.B) {
	st := benchStudy(b)
	var rows []experiment.Fig61Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = st.RunSpotCheck()
		if err != nil {
			b.Fatal(err)
		}
	}
	worstNaive, worstInformed := 100.0, 100.0
	for _, r := range rows {
		if r.SpotCheckPct < worstNaive {
			worstNaive = r.SpotCheckPct
		}
		if r.SpotLightPct < worstInformed {
			worstInformed = r.SpotLightPct
		}
	}
	b.ReportMetric(worstNaive, "worst_naive_availability_pct")
	b.ReportMetric(worstInformed, "worst_spotlight_availability_pct")
}

func BenchmarkFigure6_2(b *testing.B) {
	st := benchStudy(b)
	var rows []experiment.Fig62Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = st.RunSpotOn(40)
		if err != nil {
			b.Fatal(err)
		}
	}
	worstInflation := 0.0
	for _, r := range rows {
		if infl := r.SpotOnHours / r.IdealHours; infl > worstInflation {
			worstInflation = infl
		}
	}
	b.ReportMetric(100*(worstInflation-1), "worst_naive_runtime_inflation_pct")
}

// Ablations ------------------------------------------------------------

// ablationConfig runs a short, region-restricted study with a fixed probe
// budget so policies are compared at equal spend.
func ablationStudy(b *testing.B, mutate func(*core.Config)) *experiment.Study {
	b.Helper()
	slCfg := core.Config{
		Budget:       2000, // dollars per day
		BudgetWindow: 24 * time.Hour,
	}
	if mutate != nil {
		mutate(&slCfg)
	}
	st, err := experiment.Run(experiment.Config{
		Seed:      42,
		Days:      2,
		Regions:   []market.Region{"sa-east-1", "ap-southeast-2"},
		Spotlight: slCfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// detectedOutageMinutes totals the detected on-demand outage time.
func detectedOutageMinutes(st *experiment.Study) float64 {
	total := 0.0
	for _, o := range st.DB.Outages() {
		if o.Kind != store.ProbeOnDemand {
			continue
		}
		end := o.End
		if end.IsZero() {
			end = st.End
		}
		total += end.Sub(o.Start).Minutes()
	}
	return total
}

var (
	ablOnce                 sync.Once
	ablMarket, ablNaive     *experiment.Study
	ablNoFamily, ablSampled *experiment.Study
	ablThresholdHigh        *experiment.Study
)

func ablations(b *testing.B) {
	b.Helper()
	ablOnce.Do(func() {
		ablMarket = ablationStudy(b, nil)
		ablNaive = ablationStudy(b, func(c *core.Config) {
			c.Threshold = 1000 // never triggers: no market signal
			c.PeriodicODProbesPerDay = 2000
		})
		ablNoFamily = ablationStudy(b, func(c *core.Config) {
			c.DisableFamilyProbing = true
		})
		ablSampled = ablationStudy(b, func(c *core.Config) {
			c.SampleProb = 0.25
		})
		ablThresholdHigh = ablationStudy(b, func(c *core.Config) {
			c.Threshold = 2.0
		})
	})
}

// BenchmarkAblationMarketVsNaive compares market-based probing against
// naive periodic probing at equal budget: detected outage minutes per
// thousand dollars spent (the paper's core efficiency claim).
func BenchmarkAblationMarketVsNaive(b *testing.B) {
	ablations(b)
	var mkt, naive float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mkt = detectedOutageMinutes(ablMarket) / (ablMarket.Svc.Spent()/1000 + 1e-9)
		naive = detectedOutageMinutes(ablNaive) / (ablNaive.Svc.Spent()/1000 + 1e-9)
	}
	b.ReportMetric(mkt, "market_outage_min_per_k$")
	b.ReportMetric(naive, "naive_outage_min_per_k$")
}

// BenchmarkAblationFamilyProbing measures what the §3.2 related-market
// fan-out contributes: detected outage minutes with and without it.
func BenchmarkAblationFamilyProbing(b *testing.B) {
	ablations(b)
	var with, without float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = detectedOutageMinutes(ablMarket)
		without = detectedOutageMinutes(ablNoFamily)
	}
	b.ReportMetric(with, "with_family_outage_min")
	b.ReportMetric(without, "without_family_outage_min")
}

// BenchmarkAblationSamplingRatio measures §3.4's p knob: spend and
// detections at p=1 vs p=0.25.
func BenchmarkAblationSamplingRatio(b *testing.B) {
	ablations(b)
	var full, sampled float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = detectedOutageMinutes(ablMarket)
		sampled = detectedOutageMinutes(ablSampled)
	}
	b.ReportMetric(full, "p1.0_outage_min")
	b.ReportMetric(sampled, "p0.25_outage_min")
	b.ReportMetric(ablMarket.Svc.Spent(), "p1.0_spend_$")
	b.ReportMetric(ablSampled.Svc.Spent(), "p0.25_spend_$")
}

// BenchmarkAblationThreshold measures §3.4's T knob: T=1x vs T=2x.
func BenchmarkAblationThreshold(b *testing.B) {
	ablations(b)
	var t1, t2 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 = float64(ablMarket.Svc.Stats().ODProbes)
		t2 = float64(ablThresholdHigh.Svc.Stats().ODProbes)
	}
	b.ReportMetric(t1, "t1x_od_probes")
	b.ReportMetric(t2, "t2x_od_probes")
	b.ReportMetric(detectedOutageMinutes(ablMarket), "t1x_outage_min")
	b.ReportMetric(detectedOutageMinutes(ablThresholdHigh), "t2x_outage_min")
}

// BenchmarkDetectionScore evaluates the paper's detection claim: how much
// of the platform's true unavailability SpotLight's probing recovered.
func BenchmarkDetectionScore(b *testing.B) {
	st := benchStudy(b)
	var score experiment.DetectionScore
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		score, err = st.DetectionScore()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*score.Precision, "precision_pct")
	b.ReportMetric(100*score.Recall, "recall_pct")
	b.ReportMetric(float64(score.DetectedOutages), "detected_outages")
}

// Microbenchmarks ------------------------------------------------------

// BenchmarkSimStep measures one full-catalog simulator tick (all 4134
// markets re-clear).
func BenchmarkSimStep(b *testing.B) {
	st, err := experiment.New(experiment.Config{Seed: 1, Days: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sim.Step()
	}
}

// BenchmarkServiceTick measures a simulator tick plus a full SpotLight
// monitoring cycle over all nine regions.
func BenchmarkServiceTick(b *testing.B) {
	st, err := experiment.New(experiment.Config{Seed: 1, Days: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sim.Step()
		st.Svc.OnTick()
	}
}

// BenchmarkQueryStable measures the paper's example query over a seeded
// store, with the response cache disabled: this is the raw cost of one
// ranking computation.
func BenchmarkQueryStable(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	engine := query.NewEngine(st.DB, st.Cat)
	engine.SetCaching(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.TopStableMarkets("us-east-1", market.ProductLinux, 10, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPCachedHit measures a request served from the table of
// rendered answers through the API handler: a v1 prices hit and a 3-spec
// batch hit (the read-hot batch: stable, summary, spot unavailability),
// each revisiting a stored body under a frozen clock. No query runs and
// no encoder does; what remains is parsing, the key and the write.
// moves: cpu_us_per_op on read-hot
func BenchmarkHTTPCachedHit(b *testing.B) {
	st := benchStudy(b)
	_, to := st.Window()
	a := query.NewAPI(query.NewEngine(st.DB, st.Cat), func() time.Time { return to })
	defer a.Shutdown()
	h := a.Handler()
	id := st.Cat.SpotMarkets()[0].String()
	batch, err := json.Marshal(api.BatchRequest{Queries: []api.Query{
		{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: api.Last(24 * time.Hour)},
		{Kind: api.KindSummary},
		{Kind: api.KindUnavailability, Market: id, Contract: "spot", Window: api.Last(24 * time.Hour)},
	}})
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.NewReader(batch)
	for _, c := range []struct {
		name string
		req  *http.Request
	}{
		{"prices", httptest.NewRequest(http.MethodGet, "/v1/prices?market="+url.QueryEscape(id)+"&window=24h", nil)},
		{"batch", httptest.NewRequest(http.MethodPost, "/v2/query", io.NopCloser(body))},
	} {
		b.Run(c.name, func(b *testing.B) {
			serve := func() *httptest.ResponseRecorder {
				body.Reset(batch)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, c.req)
				return rec
			}
			if rec := serve(); rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// BenchmarkAdvise measures one decision-layer ranking of a scope whose
// generation moved: a fresh advisor first builds the scope's all-time
// order (one scope scan, the on-demand prices read from the catalog, one
// sort), then walks it under the workload constraints into a top-n
// selection — what the first /v2/advise after an append to its scope
// costs, as on a live leader after each tick.
func BenchmarkAdvise(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	wire := api.AdviseConstraints{
		Regions:  []string{"us-east-1"},
		Products: []string{string(market.ProductLinux)},
		MinVCPU:  4,
		N:        10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		adv := advisor.New(st.DB, st.Cat)
		cons, err := adv.Normalize(wire)
		if err != nil {
			b.Fatal(err)
		}
		n = len(adv.Advise(cons, from, to))
	}
	b.ReportMetric(float64(n), "candidates")
}

// coldWindows rotates absolute windows the way the read-cold workload of
// the end-to-end benchmark does: lengths cycle through 6, 24, 72 and 144 h
// and every window ends one second earlier than the one before, so no two
// iterations share a cache key.
func coldWindows(end time.Time) func(i int) (time.Time, time.Time) {
	lengths := [...]time.Duration{6 * time.Hour, 24 * time.Hour, 72 * time.Hour, 144 * time.Hour}
	return func(i int) (time.Time, time.Time) {
		to := end.Add(-time.Duration(i%100_000) * time.Second)
		return to.Add(-lengths[i%len(lengths)]), to
	}
}

// BenchmarkAdviseRegion is the advise request of read-cold: one region,
// n = 10, no other constraint, and a new window per call, as read-cold
// sends them — every fold over the region's priced markets the ranking
// does not skip is computed cold. The advisor is built once, as the served
// engine's is, so its on-demand price table is filled once, not per call.
// moves: cpu_us_per_op on read-cold
func BenchmarkAdviseRegion(b *testing.B) {
	st := benchStudy(b)
	_, end := st.Window()
	window := coldWindows(end)
	adv := advisor.New(st.DB, st.Cat)
	cons, err := adv.Normalize(api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := window(i)
		if len(adv.Advise(cons, from, to)) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkQueryStableRegion is the stable request of read-cold: the
// region's whole catalog scope ranked over a new window per call, with
// the response cache off.
// moves: cpu_us_per_op on read-cold
func BenchmarkQueryStableRegion(b *testing.B) {
	st := benchStudy(b)
	_, end := st.Window()
	window := coldWindows(end)
	engine := query.NewEngine(st.DB, st.Cat)
	engine.SetCaching(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := window(i)
		if _, err := engine.TopStableMarkets("us-east-1", "", 10, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryVolatileRegion is the volatile request of read-cold: the
// region's markets ranked by crossings over a new window per call, with
// the response cache off. The scope's all-time order is built by the first
// call and walked by every other.
// moves: cpu_us_per_op on read-cold
func BenchmarkQueryVolatileRegion(b *testing.B) {
	st := benchStudy(b)
	_, end := st.Window()
	window := coldWindows(end)
	engine := query.NewEngine(st.DB, st.Cat)
	engine.SetCaching(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := window(i)
		if _, err := engine.TopVolatileMarkets("us-east-1", "", 10, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryFallback measures the uncorrelated-fallback
// recommendation over a new window per call, as read-cold asks it.
// moves: cpu_us_per_op on read-cold
func BenchmarkQueryFallback(b *testing.B) {
	st := benchStudy(b)
	_, end := st.Window()
	window := coldWindows(end)
	engine := query.NewEngine(st.DB, st.Cat)
	id := market.SpotID{Zone: "us-east-1e", Type: "d2.8xlarge", Product: market.ProductLinux}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := window(i)
		if _, err := engine.RecommendFallback(id, 5, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// Sharded-store benchmarks -------------------------------------------------
//
// The per-market sharding of internal/store exists for two reasons: writes
// to different markets must not contend on one lock (SpotLight ingests
// every probe/spike/price of ~4500 markets), and availability queries must
// not rescan the global log. These benchmarks measure both.

// benchMarkets builds n distinct synthetic spot markets.
func benchMarkets(n int) []market.SpotID {
	zones := []market.Zone{"us-east-1a", "us-east-1b", "us-east-1d", "eu-west-1a"}
	out := make([]market.SpotID, n)
	for i := range out {
		out[i] = market.SpotID{
			Zone:    zones[i%len(zones)],
			Type:    market.InstanceType(fmt.Sprintf("c%d.%dxlarge", i/len(zones)+1, i%8+1)),
			Product: market.ProductLinux,
		}
	}
	return out
}

// storeAppendParallel drives concurrent appenders spread across nMarkets
// shards: each goroutine owns a slice of markets and round-robins its
// writes over them.
func storeAppendParallel(b *testing.B, nMarkets int) {
	b.Helper()
	db := store.New()
	mkts := benchMarkets(nMarkets)
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1)) - 1
		i := 0
		for pb.Next() {
			id := mkts[(g+i)%len(mkts)]
			db.AppendProbe(store.ProbeRecord{
				At:     base.Add(time.Duration(i) * time.Second),
				Market: id, Kind: store.ProbeOnDemand,
				Trigger: store.TriggerSpike, Rejected: i%8 == 0, Cost: 0.1,
			})
			i++
		}
	})
	b.ReportMetric(float64(nMarkets), "markets")
}

// BenchmarkStoreAppendParallel measures concurrent ingestion with a small
// market set (high per-shard contention — the old flat log's worst case
// was equivalent to nMarkets=1 for every workload).
func BenchmarkStoreAppendParallel(b *testing.B) { storeAppendParallel(b, 8) }

// BenchmarkStoreAppendParallelManyMarkets spreads the same write load over
// ~4k markets, the paper's full catalog scale: appenders virtually never
// share a shard lock.
func BenchmarkStoreAppendParallelManyMarkets(b *testing.B) { storeAppendParallel(b, 4096) }

// BenchmarkStoreAppendProbesBatchParallel measures the batched ingestion
// path: concurrent appenders each flush 64-record batches to their bound
// market through Appender.AppendProbes, paying one lock round per batch
// instead of per record (the replay bulk-load pattern).
func BenchmarkStoreAppendProbesBatchParallel(b *testing.B) {
	const batchSize = 64
	db := store.New()
	mkts := benchMarkets(8)
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1)) - 1
		id := mkts[g%len(mkts)]
		app := db.Appender(id)
		batch := make([]store.ProbeRecord, 0, batchSize)
		i := 0
		for pb.Next() {
			batch = append(batch, store.ProbeRecord{
				At:     base.Add(time.Duration(i) * time.Second),
				Market: id, Kind: store.ProbeOnDemand,
				Trigger: store.TriggerSpike, Rejected: i%8 == 0, Cost: 0.1,
			})
			if len(batch) == batchSize {
				app.AppendProbes(batch)
				batch = batch[:0]
			}
			i++
		}
		app.AppendProbes(batch)
	})
	b.ReportMetric(batchSize, "batch_size")
}

// BenchmarkStoreAppendProbesBatchParallelWAL is the durable twin of
// BenchmarkStoreAppendProbesBatchParallel: the same concurrent batched
// ingest against a store opened with a write-ahead log, WAL frames
// encoded and buffered in the same batch round (buffers auto-flush to
// segment files as they fill). Comparing the two gauges the ingest-path
// cost of durability; the acceptance bar is <15% regression.
func BenchmarkStoreAppendProbesBatchParallelWAL(b *testing.B) {
	const batchSize = 64
	db, err := store.Open(b.TempDir(), store.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mkts := benchMarkets(8)
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1)) - 1
		id := mkts[g%len(mkts)]
		app := db.Appender(id)
		batch := make([]store.ProbeRecord, 0, batchSize)
		i := 0
		for pb.Next() {
			batch = append(batch, store.ProbeRecord{
				At:     base.Add(time.Duration(i) * time.Second),
				Market: id, Kind: store.ProbeOnDemand,
				Trigger: store.TriggerSpike, Rejected: i%8 == 0, Cost: 0.1,
			})
			if len(batch) == batchSize {
				app.AppendProbes(batch)
				batch = batch[:0]
			}
			i++
		}
		app.AppendProbes(batch)
	})
	b.StopTimer()
	if err := db.Persister().Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(batchSize, "batch_size")
}

// BenchmarkWALAppend measures the steady-state durable ingest cycle of
// one market: batched appends with a WAL flush every 16 batches (the
// shape of a monitor flushing each tick), reported per record.
func BenchmarkWALAppend(b *testing.B) {
	const batchSize = 64
	db, err := store.Open(b.TempDir(), store.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	p := db.Persister()
	id := benchMarkets(1)[0]
	app := db.Appender(id)
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]store.ProbeRecord, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	ticks := 0
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = store.ProbeRecord{
				At:     base.Add(time.Duration(i+j) * time.Second),
				Market: id, Kind: store.ProbeSpot,
				Trigger: store.TriggerPeriodicSpot, Rejected: (i+j)%8 == 0, Cost: 0.1,
			}
		}
		app.AppendProbes(batch)
		if ticks++; ticks%16 == 0 {
			if err := p.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplay measures recovery: Open replaying a WAL-only data
// directory (no snapshot — the worst case) of 48k probe records across 8
// markets, rebuilding shards, aggregates, rollups, and generations.
func BenchmarkReplay(b *testing.B) {
	const perMarket = 6000
	dir := b.TempDir()
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mkts := benchMarkets(8)
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	for _, id := range mkts {
		app := db.Appender(id)
		batch := make([]store.ProbeRecord, 0, 64)
		for i := 0; i < perMarket; i++ {
			batch = append(batch, store.ProbeRecord{
				At:     base.Add(time.Duration(i) * time.Second),
				Market: id, Kind: store.ProbeOnDemand,
				Trigger: store.TriggerSpike, Rejected: i%8 == 0, Cost: 0.1,
			})
			if len(batch) == cap(batch) {
				app.AppendProbes(batch)
				batch = batch[:0]
			}
		}
		app.AppendProbes(batch)
	}
	// Flush without snapshotting: recovery must decode every frame.
	if err := db.Persister().Flush(); err != nil {
		b.Fatal(err)
	}
	records := len(mkts) * perMarket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration recovers a fresh copy: the source directory
		// stays locked by the seeding store, and recovery must see the
		// untouched WAL-only layout every time.
		b.StopTimer()
		iterDir := copyBenchDir(b, dir)
		b.StartTimer()
		re, err := store.Open(iterDir, store.PersistOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if got := int(re.GlobalGeneration()); got != records {
			b.Fatalf("replayed %d records, want %d", got, records)
		}
		b.StopTimer()
		if err := re.Persister().Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records")
}

// copyBenchDir clones a data directory (excluding the live LOCK file)
// into a fresh temp dir.
func copyBenchDir(b *testing.B, src string) string {
	b.Helper()
	dst := b.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if rel == "LOCK" {
			return nil
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		b.Fatalf("copy data dir: %v", err)
	}
	return dst
}

// BenchmarkQueryStableParallel measures concurrent readers running the
// paper's example query against the shared study store — the serving
// pattern of an Engine answering many SpotCheck/SpotOn clients at once.
// Caching is off: every reader recomputes.
func BenchmarkQueryStableParallel(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	engine := query.NewEngine(st.DB, st.Cat)
	engine.SetCaching(false)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := engine.TopStableMarkets("us-east-1", market.ProductLinux, 10, from, to); err != nil {
				// Fatal is not allowed off the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkQueryUnavailabilityParallel measures the per-market
// availability lookup (the hot path of automated placement decisions):
// pure shard-local window arithmetic.
func BenchmarkQueryUnavailabilityParallel(b *testing.B) {
	st := benchStudy(b)
	from, to := st.Window()
	engine := query.NewEngine(st.DB, st.Cat)
	ids := st.Cat.SpotMarkets()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1)) - 1
		i := 0
		for pb.Next() {
			id := ids[(g*7919+i)%len(ids)]
			if _, err := engine.ODUnavailability(id, from, to); err != nil {
				// Fatal is not allowed off the benchmark goroutine.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// Rollup benchmarks ----------------------------------------------------
//
// The rollup hierarchy in internal/store exists so scope-wide reads —
// region summaries, cache-validity probes — cost O(regions) instead of
// walking every market shard. benchWideStore seeds a synthetic store
// large enough (1000 markets across four regions) that the difference
// dominates; BenchmarkQuerySummary is the acceptance benchmark for the
// rollup layer (pre-rollup it folded per-market aggregates: ~136µs and
// ~173KB per query at this scale).

// benchWideStore seeds nMarkets markets with a handful of probes and
// spikes each; the five zones span four regions.
func benchWideStore(nMarkets int) (*store.Store, time.Time) {
	db := store.New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	zones := []market.Zone{"us-east-1a", "us-east-1b", "eu-west-1a", "ap-southeast-2a", "sa-east-1a"}
	for i := 0; i < nMarkets; i++ {
		id := market.SpotID{
			Zone:    zones[i%len(zones)],
			Type:    market.InstanceType(fmt.Sprintf("c%d.%dxlarge", i/8+1, i%8+1)),
			Product: market.ProductLinux,
		}
		for j := 0; j < 16; j++ {
			db.AppendProbe(store.ProbeRecord{
				At: base.Add(time.Duration(j) * time.Minute), Market: id,
				Kind: store.ProbeOnDemand, Rejected: j%4 == 0, Cost: 0.1,
			})
			db.AppendSpike(store.SpikeEvent{At: base.Add(time.Duration(j) * time.Minute), Market: id, Ratio: 1.5})
		}
	}
	return db, base
}

// BenchmarkQuerySummary measures the per-region summary over 1000 markets
// with the response cache off: the engine reads the O(regions) rollup
// entries, never touching a market shard.
func BenchmarkQuerySummary(b *testing.B) {
	db, base := benchWideStore(1000)
	engine := query.NewEngine(db, market.New())
	engine.SetCaching(false)
	now := base.Add(24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := engine.Summary(now); len(rows) == 0 {
			b.Fatal("empty summary")
		}
	}
}

// BenchmarkStoreRegionAggregates reads the region-level rollups directly:
// the O(regions) fold behind Summary and /v2/health.
func BenchmarkStoreRegionAggregates(b *testing.B) {
	db, base := benchWideStore(1000)
	now := base.Add(24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := db.RegionAggregates(now); len(rows) != 4 {
			b.Fatalf("got %d regions", len(rows))
		}
	}
}

// BenchmarkGenerationOfScope answers a region's cache-validity question
// from its rollup counter.
func BenchmarkGenerationOfScope(b *testing.B) {
	db, _ := benchWideStore(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if db.GenerationOfScope("us-east-1", "") == 0 {
			b.Fatal("zero generation")
		}
	}
}

// Windowed-read benchmarks --------------------------------------------
//
// The columnar shard layout exists so windowed folds are linear scans
// over per-field slices. PriceStatsIn is the allocation-free contract
// (0 allocs/op); SpikesInWindow pays only its result slice's growth.

// BenchmarkPriceStatsIn folds min/mean/max over a 5000-price window
// in-shard: a binary search plus a linear pass over the price column,
// allocating nothing.
func BenchmarkPriceStatsIn(b *testing.B) {
	db := store.New()
	id := benchMarkets(1)[0]
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	ps := make([]store.PricePoint, 0, 5000)
	for i := 0; i < 5000; i++ {
		ps = append(ps, store.PricePoint{At: base.Add(time.Duration(i) * time.Minute), Price: 0.05 + float64(i%40)/1000})
	}
	app := db.Appender(id)
	for _, p := range ps {
		app.RecordPrice(p)
	}
	from, to := base.Add(time.Hour), base.Add(72*time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := db.PriceStatsIn(id, from, to); st.Samples == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkSpikesInWindow scans the spike windows of 1000 markets — the
// read behind /v1/predict and the threshold sweep.
func BenchmarkSpikesInWindow(b *testing.B) {
	db, base := benchWideStore(1000)
	from, to := base, base.Add(24*time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.SpikesInWindow(from, to, nil)) == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkStoreAppendMonitorTick is the monitor-shaped ingest workload:
// concurrent region scanners each buffer a tick's worth of records (~9
// probes, the spike/cross/related/recheck fan-out of one detection) per
// market and flush them through Appender.AppendProbes — the internal/core
// per-tick batching path.
//
// heap_B/record is the live heap the store retains per record appended:
// the HeapAlloc delta across the run, each end read after runtime.GC.
func BenchmarkStoreAppendMonitorTick(b *testing.B) {
	const tickBatch = 9
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := store.New()
	mkts := benchMarkets(256)
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1)) - 1
		apps := make(map[int]*store.Appender)
		batch := make([]store.ProbeRecord, 0, tickBatch)
		i := 0
		for pb.Next() {
			mi := (g*31 + i/tickBatch) % len(mkts)
			app := apps[mi]
			if app == nil {
				app = db.Appender(mkts[mi])
				apps[mi] = app
			}
			batch = append(batch, store.ProbeRecord{
				At: base.Add(time.Duration(i) * time.Second), Market: mkts[mi],
				Kind: store.ProbeOnDemand, Trigger: store.TriggerSpike,
				Rejected: i%8 == 0, Cost: 0.1,
			})
			if len(batch) == tickBatch {
				app.AppendProbes(batch)
				batch = batch[:0]
			}
			i++
		}
		if len(batch) > 0 {
			// Flush the tail to whichever market the batch was filling.
			apps[(g*31+i/tickBatch)%len(mkts)].AppendProbes(batch)
		}
	})
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(db.GlobalGeneration()), "heap_B/record")
	b.ReportMetric(tickBatch, "tick_batch")
}

// BenchmarkFeedPublish measures the change feed's publish round per
// 64-record batch — event construction, ring insertion and one wake —
// with one subscriber that drains as it is woken ("drained") and with one
// that never reads ("stalled"). The two must sit within noise of each
// other: a slow consumer costs the publisher nothing.
func BenchmarkFeedPublish(b *testing.B) {
	for _, mode := range []string{"drained", "stalled"} {
		b.Run(mode, func(b *testing.B) {
			const batchSize = 64
			db := store.New()
			sub := db.Feed().Subscribe(store.SubscribeOptions{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				if mode == "stalled" {
					return
				}
				buf := make([]store.Event, 0, 256)
				for range sub.Ready() {
					sub.Next(buf)
				}
			}()
			id := benchMarkets(1)[0]
			app := db.Appender(id)
			base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
			batch := make([]store.ProbeRecord, batchSize)
			for i := range batch {
				batch[i] = store.ProbeRecord{
					At: base, Market: id, Kind: store.ProbeOnDemand,
					Trigger: store.TriggerSpike, Cost: 0.1,
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app.AppendProbes(batch)
			}
			b.StopTimer()
			sub.Close()
			<-done
			b.ReportMetric(batchSize, "batch_size")
		})
	}
}

// Observability benchmarks ---------------------------------------------
//
// BenchmarkObsOverhead is the acceptance pair for internal/obs: each
// instrumented hot path runs against its uninstrumented twin (nil
// registry — every obs method no-ops on nil), and the two must stay
// within noise of each other. "append" is the batched store ingest path
// (counters and a WAL-shaped histogram per batch); "summary" is a full
// cached HTTP round trip through the API handler (middleware, stage
// trace, a body served from the table of rendered answers).
func BenchmarkObsOverhead(b *testing.B) {
	registries := []struct {
		name string
		reg  func() *obs.Registry
	}{
		{"off", func() *obs.Registry { return nil }},
		{"on", obs.NewRegistry},
	}
	for _, v := range registries {
		b.Run("append/metrics="+v.name, func(b *testing.B) {
			const batchSize = 64
			db := store.New()
			db.EnableMetrics(v.reg())
			id := benchMarkets(1)[0]
			app := db.Appender(id)
			base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
			batch := make([]store.ProbeRecord, batchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batchSize {
				for j := range batch {
					batch[j] = store.ProbeRecord{
						At:     base.Add(time.Duration(i+j) * time.Second),
						Market: id, Kind: store.ProbeOnDemand,
						Trigger: store.TriggerSpike, Rejected: (i+j)%8 == 0, Cost: 0.1,
					}
				}
				app.AppendProbes(batch)
			}
		})
	}
	for _, v := range registries {
		b.Run("summary/metrics="+v.name, func(b *testing.B) {
			db, base := benchWideStore(100)
			a := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return base.Add(24 * time.Hour) })
			defer a.Shutdown()
			a.EnableMetrics(v.reg())
			h := a.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/summary", nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("summary status = %d", rec.Code)
				}
			}
		})
	}
}

// BenchmarkFeedFanout measures one append batch fanning out to 1, 64,
// and 512 concurrently draining subscribers with mixed scope filters —
// the "one append, N watchers" shape the ROADMAP's push fan-out calls
// for.
func BenchmarkFeedFanout(b *testing.B) {
	for _, subs := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			const batchSize = 64
			db := store.New()
			id := benchMarkets(1)[0]
			app := db.Appender(id)
			var wg sync.WaitGroup
			// Registered before the per-subscription Close defers so it
			// runs after them: drainers exit once Close closes Ready.
			defer wg.Wait()
			for i := 0; i < subs; i++ {
				filter := store.EventFilter{}
				if i%2 == 1 {
					filter.Region = "us-east-1"
				}
				sub := db.Feed().Subscribe(store.SubscribeOptions{Filter: filter})
				defer sub.Close()
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]store.Event, 0, 256)
					for range sub.Ready() {
						sub.Next(buf)
					}
				}()
			}
			base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
			batch := make([]store.ProbeRecord, batchSize)
			for i := range batch {
				batch[i] = store.ProbeRecord{
					At: base, Market: id, Kind: store.ProbeOnDemand,
					Trigger: store.TriggerSpike, Cost: 0.1,
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app.AppendProbes(batch)
			}
			b.StopTimer()
			b.ReportMetric(float64(subs)*batchSize, "deliveries/op")
		})
	}
}
