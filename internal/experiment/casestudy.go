package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
)

// odAvailable answers on-demand obtainability from the simulator's ground
// truth.
func (st *Study) odAvailable(m market.SpotID, t time.Time) bool {
	ok, err := st.Sim.ODAvailableAt(m, t)
	return err == nil && ok
}

// spotlightFallback builds the SpotLight-informed fallback policy for
// market m: the query engine's best uncorrelated market, recomputed only
// when the study's history shows a revocation or an outage opening in m's
// region since the previous decision, or when a trial restarts the
// timeline. The engine scan runs only when the information service
// learned something, not at every decision.
func (st *Study) spotlightFallback(m market.SpotID) fallbackPolicy {
	engine := query.NewEngine(st.DB, st.Cat)
	var last time.Time
	target := m
	return func(t time.Time) market.SpotID {
		news := last.IsZero() || t.Before(last)
		if !news {
			w := store.WindowOf(last.Add(time.Nanosecond), t)
			st.DB.ScanScope(m.Region(), "", func(v store.MarketView) {
				revoked, _ := v.RevocationStats(w)
				news = news || revoked > 0 || v.OutagesOpened(w) > 0
			})
		}
		last = t
		if news {
			target = m
			if t.After(st.Start) {
				if rows, err := engine.RecommendFallback(m, 1, st.Start, t); err == nil && len(rows) > 0 {
					target = rows[0].Market
				}
			}
		}
		return target
	}
}

// caseStudyReplays returns a replay of every case-study market the study
// monitored (a region filter leaves some out) on the simulator's ground
// truth, with the paper's baseline fallback.
func (st *Study) caseStudyReplays() ([]replay, error) {
	var out []replay
	for _, m := range CaseStudyMarkets() {
		od, err := st.Cat.SpotODPrice(m)
		if err != nil {
			return nil, err
		}
		if trace := st.DB.Prices(m); len(trace) > 0 {
			out = append(out, replay{replicas: []Replica{{Market: m, ODPrice: od, Trace: trace}}, od: st.odAvailable})
		}
	}
	return out, nil
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
	replays, err := st.caseStudyReplays()
	if err != nil {
		return nil, err
	}
	var rows []Fig61Row
	for _, r := range replays {
		m := r.replicas[0].Market
		naive, err := runVM(r, st.Start, st.End, st.Cfg.Tick)
		if err != nil {
			return nil, fmt.Errorf("experiment: spotcheck %v: %w", m, err)
		}
		r.fallback = st.spotlightFallback(m)
		smart, err := runVM(r, st.Start, st.End, st.Cfg.Tick)
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
// 8 GB footprint checkpointed in ~6 minutes), replayed a minute at a time
// whatever the study's tick.
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

	replays, err := st.caseStudyReplays()
	if err != nil {
		return nil, err
	}
	var rows []Fig62Row
	for _, r := range replays {
		m := r.replicas[0].Market
		naive, err := runTrials(r, starts, runJob)
		if err != nil {
			return nil, fmt.Errorf("experiment: spoton %v: %w", m, err)
		}
		ideal := r
		ideal.od = AlwaysAvailable
		r.fallback = st.spotlightFallback(m)
		informed, err := runTrials(r, starts, runJob)
		if err != nil {
			return nil, fmt.Errorf("experiment: spoton(+spotlight) %v: %w", m, err)
		}
		idealStats, err := runTrials(ideal, starts, runJob)
		if err != nil {
			return nil, fmt.Errorf("experiment: spoton(ideal) %v: %w", m, err)
		}
		rows = append(rows, Fig62Row{
			Market:         m,
			SpotOnHours:    naive.MeanCompletion.Hours(),
			SpotLightHours: informed.MeanCompletion.Hours(),
			IdealHours:     idealStats.MeanCompletion.Hours(),
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
