package query

import (
	"sort"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/stats"
	"spotlight/internal/store"
)

// VolatileMarket is one row of a volatility ranking. Chapter 4's
// Revocation probing function targets "selected markets by users with
// high volatility"; this query is how a user selects them.
type VolatileMarket struct {
	Market market.SpotID `json:"market"`
	// Crossings counts spikes past the on-demand price in the window.
	Crossings int `json:"crossings"`
	// MaxRatio is the largest observed spike multiple.
	MaxRatio float64 `json:"maxRatio"`
	// MeanHeld is the observed mean time-to-revocation from the
	// revocation watches, when any exist for this market.
	MeanHeld time.Duration `json:"meanHeldNanos"`
	// Watches is the number of completed revocation observations.
	Watches int `json:"watches"`
}

// TopVolatileMarkets ranks markets by spike count (descending) within the
// window, enriched with revocation-watch observations: one scan of the
// scope's shards — a market with no spike past the on-demand price in the
// window is not volatile and gets no row — into a top-n selection.
// Region/product filter as in TopStableMarkets; n bounds the result.
func (e *Engine) TopVolatileMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]VolatileMarket, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
	top := stats.NewTopN(n, func(a, b *VolatileMarket) bool {
		if a.Crossings != b.Crossings {
			return a.Crossings > b.Crossings
		}
		if a.MaxRatio != b.MaxRatio {
			return a.MaxRatio > b.MaxRatio
		}
		return a.Market.Compare(b.Market) < 0
	})
	w := store.WindowOf(from, to)
	e.db.ScanScope(region, product, func(v store.MarketView) {
		cs := v.CrossingStats(w)
		if cs.Crossings == 0 {
			return
		}
		row := VolatileMarket{Market: v.Market(), Crossings: cs.Crossings, MaxRatio: cs.MaxRatio}
		var held time.Duration
		if row.Watches, held = v.RevocationStats(w); row.Watches > 0 {
			row.MeanHeld = held / time.Duration(row.Watches)
		}
		top.Push(row)
	})
	return top.Sorted(), nil
}

// OutageView is one detected outage row returned by the outages query.
type OutageView struct {
	Market market.SpotID `json:"market"`
	Kind   string        `json:"kind"`
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end,omitempty"`
	// DurationNanos is measured to `now` for ongoing outages.
	Duration time.Duration `json:"durationNanos"`
}

// Outages returns the detected outages of one market overlapping
// [from, to], both contract kinds, oldest first.
func (e *Engine) Outages(m market.SpotID, from, to time.Time) ([]OutageView, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	var out []OutageView
	for _, kind := range []store.ProbeKind{store.ProbeOnDemand, store.ProbeSpot} {
		for _, o := range e.db.OutagesFor(m, kind) {
			if !o.Overlaps(from, to) {
				continue
			}
			out = append(out, OutageView{
				Market:   o.Market,
				Kind:     kind.String(),
				Start:    o.Start,
				End:      o.End,
				Duration: o.Duration(to),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}
