package spotlight_test

import (
	"testing"

	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/pkg/api"
)

// TestRankingAllocationCeilings pins what an uncached ranking may allocate
// on a seeded study: the scope scan and the top-n selection allocate per
// request, not per market, and a regression to per-market allocation (a
// row escaping, an ID rendered for a row that does not win) lands in the
// hundreds. The ceilings are ROADMAP's "One read path" targets.
func TestRankingAllocationCeilings(t *testing.T) {
	st, err := experiment.Run(experiment.Config{Seed: 42, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	from, to := st.Window()
	engine := query.NewEngine(st.DB, st.Cat)
	engine.SetCaching(false)
	adv := engine.Advisor()
	cons, err := adv.Normalize(api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	target := market.SpotID{Zone: "us-east-1e", Type: "d2.8xlarge", Product: market.ProductLinux}
	for _, c := range []struct {
		name    string
		ceiling float64
		call    func() int
	}{
		{"TopStableMarkets", 20, func() int {
			rows, _ := engine.TopStableMarkets("us-east-1", "", 10, from, to)
			return len(rows)
		}},
		{"TopVolatileMarkets", 20, func() int {
			rows, _ := engine.TopVolatileMarkets("us-east-1", "", 10, from, to)
			return len(rows)
		}},
		{"RecommendFallback", 20, func() int {
			rows, _ := engine.RecommendFallback(target, 5, from, to)
			return len(rows)
		}},
		{"Advisor.Advise", 16, func() int {
			return len(adv.Advise(cons, from, to))
		}},
	} {
		if c.call() == 0 {
			t.Errorf("%s returned no rows on the seeded study: the ceiling would measure nothing", c.name)
		}
		if got := testing.AllocsPerRun(20, func() { c.call() }); got > c.ceiling {
			t.Errorf("%s allocates %.0f times per call, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.0f allocs per call (ceiling %.0f)", c.name, got, c.ceiling)
		}
	}
}
