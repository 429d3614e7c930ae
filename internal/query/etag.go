package query

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"spotlight/internal/market"
	"spotlight/pkg/api"
)

// HTTP conditional requests: every successful query response carries an
// ETag derived from the query spec and the store generation of the scope
// the answer reads. A client that replays the query with If-None-Match
// gets 304 Not Modified — no recomputation, no body — until an append
// lands inside the scope (or, for clock-dependent queries, the service
// clock moves). The generation lookups come from the store's rollup
// counters, so validating a request is O(1) regardless of how many
// markets the query would touch.

// queryScopeGen returns the append generation of the shards one query's
// answer can depend on, at the narrowest rollup granularity that is still
// sound. Malformed market IDs yield generation 0 — deterministic, and the
// execution path rejects the spec with the same error every time.
func (a *API) queryScopeGen(q api.Query) uint64 {
	db := a.engine.db
	switch q.Kind {
	case api.KindUnavailability, api.KindPrices, api.KindOutages, api.KindReservedValue:
		id, err := market.ParseSpotID(q.Market)
		if err != nil {
			return 0
		}
		return db.Generation(id)
	case api.KindStable, api.KindVolatile:
		return db.GenerationOfScope(market.Region(q.Region), market.Product(q.Product))
	case api.KindFallback:
		// Fallback candidates come from the market's own region.
		id, err := market.ParseSpotID(q.Market)
		if err != nil {
			return 0
		}
		return db.GenerationOfScope(id.Region(), "")
	case api.KindPredict:
		// The predictor backs off to region- and global-level history when
		// the market's own sample is thin, so its scope is the store.
		return db.GlobalGeneration()
	case api.KindAdvise:
		// The advisor reads every priced market in the constraint's region
		// set; its own ScopeGen computes the matching validity token
		// (per-region generations when restricted, global otherwise).
		var cons api.AdviseConstraints
		if q.Advise != nil {
			cons = *q.Advise
		}
		c, err := a.engine.adv.Normalize(cons)
		if err != nil {
			return 0
		}
		return a.engine.adv.ScopeGen(c)
	case api.KindSummary:
		return db.GlobalGeneration()
	case api.KindMarkets:
		// Catalog-only: immutable for the life of the process.
		return 0
	default:
		return 0
	}
}

// dependsOnNow reports whether the query's answer changes with the
// service clock even when no append lands: relative windows resolve
// against now, the summary measures open outages to now, and an advise
// spec with no window at all defaults to a relative one.
func dependsOnNow(q api.Query) bool {
	return q.Kind == api.KindSummary || q.Rel != "" ||
		(q.Kind == api.KindAdvise && q.Window.IsZero())
}

// etagFor computes the strong ETag of a query set evaluated at service
// clock now: an FNV-64a hash over responseFormat, the ETag salt, every
// spec's parameters and scope generation, plus the clock when any spec
// depends on it. Identical specs against an unchanged scope (and unchanged
// clock, where it matters) produce the identical tag. A durable store
// keeps its salt across clean restarts, so a release that renders the same
// records to different bytes bumps responseFormat — to 2 when price means
// began adding sealed chunk sums — and retires every tag minted before it.
func (a *API) etagFor(qs []api.Query, now time.Time) string {
	const responseFormat = 2
	h := fnv.New64a()
	fmt.Fprintf(h, "format|%d|epoch|%d\n", responseFormat, a.epoch)
	clockBound := false
	for _, q := range qs {
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%d|%g|%s|%g|%d|%d|%s|%d\n",
			q.Kind, q.Market, q.Region, q.Product, q.Contract, q.N,
			q.Ratio, q.Horizon, q.Utilization,
			q.From.UnixNano(), q.To.UnixNano(), q.Rel,
			a.queryScopeGen(q))
		if c := q.Advise; c != nil {
			fmt.Fprintf(h, "advise|%s|%s|%s|%d|%g|%g|%g|%d\n",
				strings.Join(c.Regions, ","), strings.Join(c.Products, ","),
				c.InstanceTypes, c.MinVCPU, c.MinMemoryGB,
				c.MaxPricePerHour, c.MaxInterruptionRate, c.N)
		}
		clockBound = clockBound || dependsOnNow(q)
	}
	if clockBound {
		fmt.Fprintf(h, "now|%d", now.UnixNano())
	}
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}
