package query

import (
	"cmp"
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
// window, enriched with revocation-watch observations: a walk of the
// scope's markets into a top-n selection (walkVolatile). A market with no
// spike past the on-demand price in the window is not volatile and gets no
// row. Region/product filter as in TopStableMarkets; n bounds the result.
func (e *Engine) TopVolatileMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]VolatileMarket, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
	top := stats.NewTopN(n, volatileBefore)
	e.walkVolatile(region, product, store.WindowOf(from, to), top.Admits, top.Push)
	return top.Sorted(), nil
}

// volatileBefore is the volatility order: most crossings, then the largest
// spike multiple, then market ID.
func volatileBefore(a, b *VolatileMarket) bool {
	if a.Crossings != b.Crossings {
		return a.Crossings > b.Crossings
	}
	if a.MaxRatio != b.MaxRatio {
		return a.MaxRatio > b.MaxRatio
	}
	return a.Market.Compare(b.Market) < 0
}

// crossedMost orders all-time crossing stats as volatileBefore orders rows.
func crossedMost(a, b store.CrossingStats) int {
	if c := cmp.Compare(b.Crossings, a.Crossings); c != 0 {
		return c
	}
	return cmp.Compare(b.MaxRatio, a.MaxRatio)
}

// everCrossed is the volatile order's key: a market's crossings over all
// time, which no window's crossings exceed, with their largest multiple.
// A window with as many crossings holds the same spikes, so no window's
// row ranks before this best case. A market that never crossed is left out.
func everCrossed(v store.MarketView) (store.CrossingStats, bool) {
	cs := v.CrossingStats(store.AllTime)
	return cs, cs.Crossings > 0
}

// walkVolatile hands row the markets of the (region, product) scope, either
// empty for all, that crossed the on-demand price in w, each with its
// crossings and revocation watches over w, walking them in the order of
// their all-time crossings (everCrossed). Before each market admits is
// asked about its all-time best case; the first refusal ends the walk.
func (e *Engine) walkVolatile(region market.Region, product market.Product, w store.Window, admits func(VolatileMarket) bool, row func(VolatileMarket)) {
	e.volatile.Walk(region, product, func(id market.SpotID, best store.CrossingStats) bool {
		return admits(VolatileMarket{Market: id, Crossings: best.Crossings, MaxRatio: best.MaxRatio})
	}, func(v store.MarketView) {
		cs := v.CrossingStats(w)
		if cs.Crossings == 0 {
			return
		}
		r := VolatileMarket{Market: v.Market(), Crossings: cs.Crossings, MaxRatio: cs.MaxRatio}
		var held time.Duration
		if r.Watches, held = v.RevocationStats(w); r.Watches > 0 {
			r.MeanHeld = held / time.Duration(r.Watches)
		}
		row(r)
	})
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
