package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/spotcheck"
	"spotlight/internal/spoton"
	"spotlight/internal/store"
)

// groundTruthPlatform adapts the simulator's ground truth to the case
// studies' Platform interface.
type groundTruthPlatform struct{ st *Study }

func (p groundTruthPlatform) ODAvailable(m market.SpotID, t time.Time) bool {
	ok, err := p.st.Sim.ODAvailableAt(m, t)
	return err == nil && ok
}

// alwaysAvailable is the (false) assumption the paper debunks: an
// on-demand fallback that never fails.
type alwaysAvailable struct{}

func (alwaysAvailable) ODAvailable(market.SpotID, time.Time) bool { return true }

// spotlightFallback builds the event-steered fallback policy for market
// m: revocation and outage-open events in m's region signal that the
// steering should be recomputed, and the query engine supplies the
// current best uncorrelated market. Signals come from two equivalent
// sources — a live subscription to the store's change feed (a study that
// is still ingesting pushes the recompute the moment SpotLight learns of
// a revocation), and, for a completed study whose feed is quiet, the
// region's revocation and outage folds over the gap since the previous
// decision (the stand-in for the same push). Either way the engine scan runs
// only when the information service actually learned something, not on a
// timer. The returned closer releases the feed subscription.
func (st *Study) spotlightFallback(m market.SpotID) (func(t time.Time) market.SpotID, func()) {
	engine := query.NewEngine(st.DB, st.Cat)
	sub := st.DB.Feed().Subscribe(store.SubscribeOptions{Filter: store.EventFilter{
		Region: m.Region(),
		Kinds:  []store.EventKind{store.EventRevocation, store.EventOutageOpen},
	}})
	var lastT time.Time
	buf := make([]store.Event, 0, 64)
	signaled := func(t time.Time) bool {
		saw := false
		for {
			evs, _ := sub.Next(buf)
			if len(evs) == 0 {
				break
			}
			saw = true
		}
		switch {
		case lastT.IsZero() || t.Before(lastT):
			// First decision of a (re)started timeline — trials replay
			// from different start times.
			saw = true
		case !saw:
			// Quiet feed: ask the recorded history whether a revocation
			// landed or an outage opened inside (lastT, t], exactly what the
			// live feed would have pushed.
			from := lastT.Add(time.Nanosecond)
			st.DB.ScanScope(m.Region(), "", func(v store.MarketView) {
				revoked, _ := v.RevocationStats(from, t)
				saw = saw || revoked > 0 || v.OutagesOpened(from, t) > 0
			})
		}
		lastT = t
		return saw
	}
	recompute := func(t time.Time) market.SpotID {
		from := st.Start
		if !t.After(from) {
			return m
		}
		rows, err := engine.RecommendFallback(m, 1, from, t)
		if err != nil || len(rows) == 0 {
			return m
		}
		return rows[0].Market
	}
	return spotcheck.EventSteeredFallback(signaled, recompute), sub.Close
}

// Fig61Row is one bar pair of Fig 6.1.
type Fig61Row struct {
	Market market.SpotID
	// SpotCheckPct is availability with the paper's baseline fallback
	// (same market on-demand, assumed always obtainable).
	SpotCheckPct float64
	// SpotLightPct is availability with the SpotLight-informed
	// uncorrelated fallback.
	SpotLightPct float64
	Revocations  int
	FailedFails  int
}

// RunSpotCheck evaluates SpotCheck's availability on every case-study
// market with and without SpotLight's data (Fig 6.1). Markets the study
// did not monitor (e.g. under a region filter) are skipped.
func (st *Study) RunSpotCheck() ([]Fig61Row, error) {
	var rows []Fig61Row
	for _, m := range CaseStudyMarkets() {
		od, err := st.Cat.SpotODPrice(m)
		if err != nil {
			return nil, err
		}
		trace := st.DB.Prices(m)
		if len(trace) == 0 {
			continue // market outside the monitored regions
		}
		base := spotcheck.Config{
			Market:   m,
			ODPrice:  od,
			Trace:    trace,
			Platform: groundTruthPlatform{st},
			From:     st.Start,
			To:       st.End,
			Tick:     st.Cfg.Tick,
		}
		naive, err := spotcheck.Run(base)
		if err != nil {
			return nil, fmt.Errorf("experiment: spotcheck %v: %w", m, err)
		}
		informed := base
		policy, closePolicy := st.spotlightFallback(m)
		informed.Fallback = policy
		smart, err := spotcheck.Run(informed)
		closePolicy()
		if err != nil {
			return nil, fmt.Errorf("experiment: spotcheck(+spotlight) %v: %w", m, err)
		}
		rows = append(rows, Fig61Row{
			Market:       m,
			SpotCheckPct: naive.AvailabilityPct,
			SpotLightPct: smart.AvailabilityPct,
			Revocations:  naive.Revocations,
			FailedFails:  naive.FailedFailovers,
		})
	}
	return rows, nil
}

// Fig62Row is one bar pair of Fig 6.2.
type Fig62Row struct {
	Market market.SpotID
	// SpotOnHours is the mean completion time (hours) with the baseline
	// same-market fallback under real availability.
	SpotOnHours float64
	// SpotLightHours is the mean completion with the SpotLight-informed
	// fallback.
	SpotLightHours float64
	// IdealHours assumes on-demand servers are always available — the
	// number SpotOn *believes* it delivers.
	IdealHours  float64
	Revocations int
}

// RunSpotOn evaluates SpotOn's mean completion time over `trials` evenly
// spread start times per case-study market (Fig 6.2: a 1-hour job with an
// 8 GB footprint checkpointed in ~6 minutes).
func (st *Study) RunSpotOn(trials int) ([]Fig62Row, error) {
	if trials <= 0 {
		trials = 100
	}
	window := st.End.Sub(st.Start)
	if window <= 0 {
		return nil, fmt.Errorf("experiment: study has no window")
	}
	// Leave room at the end so late jobs can still run.
	usable := window - 12*time.Hour
	if usable <= 0 {
		usable = window / 2
	}
	starts := make([]time.Time, trials)
	for i := range starts {
		starts[i] = st.Start.Add(time.Duration(int64(usable) / int64(trials) * int64(i)))
	}

	var rows []Fig62Row
	for _, m := range CaseStudyMarkets() {
		od, err := st.Cat.SpotODPrice(m)
		if err != nil {
			return nil, err
		}
		trace := st.DB.Prices(m)
		if len(trace) == 0 {
			continue // market outside the monitored regions
		}
		base := spoton.JobConfig{
			Market:             m,
			ODPrice:            od,
			Trace:              trace,
			Platform:           groundTruthPlatform{st},
			RunningTime:        time.Hour,
			CheckpointTime:     6 * time.Minute,
			CheckpointInterval: 15 * time.Minute,
			Tick:               st.Cfg.Tick,
		}
		naive, err := spoton.RunTrials(base, starts)
		if err != nil {
			return nil, fmt.Errorf("experiment: spoton %v: %w", m, err)
		}
		informedCfg := base
		policy, closePolicy := st.spotlightFallback(m)
		informedCfg.Fallback = policy
		informed, err := spoton.RunTrials(informedCfg, starts)
		closePolicy()
		if err != nil {
			return nil, fmt.Errorf("experiment: spoton(+spotlight) %v: %w", m, err)
		}
		idealCfg := base
		idealCfg.Platform = alwaysAvailable{}
		ideal, err := spoton.RunTrials(idealCfg, starts)
		if err != nil {
			return nil, fmt.Errorf("experiment: spoton(ideal) %v: %w", m, err)
		}
		rows = append(rows, Fig62Row{
			Market:         m,
			SpotOnHours:    naive.MeanCompletion.Hours(),
			SpotLightHours: informed.MeanCompletion.Hours(),
			IdealHours:     ideal.MeanCompletion.Hours(),
			Revocations:    naive.Revocations,
		})
	}
	return rows, nil
}

// WriteFig61 renders Fig 6.1 rows as a text table.
func WriteFig61(w io.Writer, rows []Fig61Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "market\tSpotCheck%\tSpotLight%\trevocations\tfailed_failovers")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%d\t%d\n",
			r.Market, r.SpotCheckPct, r.SpotLightPct, r.Revocations, r.FailedFails)
	}
	return tw.Flush()
}

// WriteFig62 renders Fig 6.2 rows as a text table.
func WriteFig62(w io.Writer, rows []Fig62Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "market\tSpotOn_h\tSpotLight_h\tideal_h\trevocations")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%d\n",
			r.Market, r.SpotOnHours, r.SpotLightHours, r.IdealHours, r.Revocations)
	}
	return tw.Flush()
}
