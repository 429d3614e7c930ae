package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

// request is one generated input. The program under test receives only
// these: the generator never looks at the store.
type request struct {
	Op     string     `json:"op"`
	Market string     `json:"market,omitempty"`
	N      int        `json:"n,omitempty"`
	Window api.Window `json:"window"`
}

const benchRegion = "us-east-1"

type mixEntry struct {
	op     string
	weight int
}

// The three read mixes. hotMix is internal/loadgen's (the spotload mix)
// plus the conditional GET; fleetMix is the same without it, because under
// an advancing clock a relative-window tag is not expected to revalidate.
var (
	hotMix   = []mixEntry{{"unavailability", 4}, {"prices", 3}, {"stable", 2}, {"summary", 2}, {"batch", 3}, {"revalidate", 3}}
	fleetMix = hotMix[:5]
	coldMix  = []mixEntry{{"stable", 3}, {"volatile", 2}, {"fallback", 2}, {"advise", 2}, {"prices", 1}}
)

// coldLengths are the window lengths of read-cold requests.
var coldLengths = []time.Duration{6 * time.Hour, 24 * time.Hour, 72 * time.Hour, 144 * time.Hour}

func expand(mix []mixEntry) []string {
	var out []string
	for _, e := range mix {
		for i := 0; i < e.weight; i++ {
			out = append(out, e.op)
		}
	}
	return out
}

func workerRand(seed uint64, worker int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(worker)))
}

func defaultN(op string) int {
	switch op {
	case "stable", "volatile", "advise":
		return 10
	case "fallback":
		return 5
	}
	return 0
}

// genRelative builds one worker's list for a mix whose every request asks
// for the trailing 24 h: a few dozen distinct keys in all.
func genRelative(seed uint64, worker, n int, mix []mixEntry, markets []string) []request {
	rng := workerRand(seed, worker)
	ops := expand(mix)
	window := api.Last(24 * time.Hour)
	out := make([]request, n)
	for i := range out {
		op := ops[rng.Intn(len(ops))]
		r := request{Op: op, N: defaultN(op), Window: window}
		switch op {
		case "unavailability", "prices", "batch", "revalidate":
			r.Market = markets[rng.Intn(len(markets))]
		}
		out[i] = r
	}
	return out
}

// genCold builds one worker's read-cold list: request i of the worker gets
// the globally unique index i·workers + worker, and its window ends that
// many seconds before the dataset's end, so no two requests of a run share a
// cache key.
func genCold(seed uint64, worker, workers, n int, markets []string, end time.Time) []request {
	rng := workerRand(seed, worker)
	ops := expand(coldMix)
	out := make([]request, n)
	for i := range out {
		op := ops[rng.Intn(len(ops))]
		idx := i*workers + worker
		to := end.Add(-time.Duration(idx) * time.Second)
		length := coldLengths[rng.Intn(len(coldLengths))]
		r := request{Op: op, N: defaultN(op), Window: api.Between(to.Add(-length), to)}
		switch op {
		case "fallback", "prices":
			r.Market = markets[rng.Intn(len(markets))]
		}
		out[i] = r
	}
	return out
}

// encodeList renders a request list as bytes (tests compare these).
func encodeList(list []request) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range list {
		_ = enc.Encode(r) // a bytes.Buffer write cannot fail
	}
	return b.Bytes()
}

// parts returns the typed specs a request expands to: three for the
// batch op (the spotload batch), itself otherwise.
func (r request) parts() []request {
	if r.Op != "batch" {
		return []request{r}
	}
	return []request{
		{Op: "stable", N: 5, Window: r.Window},
		{Op: "summary"},
		{Op: "unavailability", Market: r.Market, Window: r.Window},
	}
}

func adviseConstraints(n int) api.AdviseConstraints {
	return api.AdviseConstraints{Regions: []string{benchRegion}, N: n}
}

// caller issues requests through the SDK: c for plain calls, cond (a
// client with conditional requests on) for the revalidate op.
type caller struct {
	c, cond *client.Client
}

func (k caller) do(ctx context.Context, r request) error {
	var err error
	switch r.Op {
	case "unavailability":
		_, err = k.c.Unavailability(ctx, r.Market, "spot", r.Window)
	case "revalidate":
		_, err = k.cond.Unavailability(ctx, r.Market, "spot", r.Window)
	case "prices":
		_, err = k.c.Prices(ctx, r.Market, r.Window)
	case "stable":
		_, err = k.c.Stable(ctx, benchRegion, "", r.N, r.Window)
	case "volatile":
		_, err = k.c.Volatile(ctx, benchRegion, "", r.N, r.Window)
	case "fallback":
		_, err = k.c.Fallback(ctx, r.Market, r.N, r.Window)
	case "summary":
		_, err = k.c.Summary(ctx)
	case "advise":
		_, err = k.c.Advise(ctx, api.AdviseRequest{AdviseConstraints: adviseConstraints(r.N), Window: r.Window})
	case "batch":
		p := r.parts()
		var resp *api.BatchResponse
		resp, err = k.c.Batch(ctx,
			api.Query{Kind: api.KindStable, Region: benchRegion, N: p[0].N, Window: p[0].Window},
			api.Query{Kind: api.KindSummary},
			api.Query{Kind: api.KindUnavailability, Market: p[2].Market, Contract: "spot", Window: p[2].Window},
		)
		if err == nil {
			for _, res := range resp.Results {
				if res.Error != nil {
					return res.Error
				}
			}
		}
	default:
		err = fmt.Errorf("bench: unknown op %q", r.Op)
	}
	return err
}

// engineOut is what the engine returned for one typed spec.
type engineOut struct {
	op       string
	market   market.SpotID
	from, to time.Time
	frac     float64
	prices   []store.PricePoint
	stable   []query.StableMarket
	volatile []query.VolatileMarket
	fallback []query.Fallback
	summary  []query.RegionSummary
	advise   []api.AdviseCandidate
}

// callEngine is rung L3: the Engine method matching one typed spec, with
// the window resolved against now the way the HTTP layer resolves it.
func callEngine(e *query.Engine, r request, now time.Time) (engineOut, error) {
	out := engineOut{op: r.Op}
	var err error
	if r.Op != "summary" {
		var aerr *api.Error
		out.from, out.to, aerr = r.Window.Resolve(now)
		if aerr != nil {
			return out, aerr
		}
	}
	if r.Market != "" {
		if out.market, err = market.ParseSpotID(r.Market); err != nil {
			return out, err
		}
	}
	switch r.Op {
	case "unavailability":
		out.frac, err = e.SpotUnavailability(out.market, out.from, out.to)
	case "revalidate":
		// A 304 never reaches the engine.
	case "prices":
		out.prices, err = e.Prices(out.market, out.from, out.to)
	case "stable":
		out.stable, err = e.TopStableMarkets(benchRegion, "", r.N, out.from, out.to)
	case "volatile":
		out.volatile, err = e.TopVolatileMarkets(benchRegion, "", r.N, out.from, out.to)
	case "fallback":
		out.fallback, err = e.RecommendFallback(out.market, r.N, out.from, out.to)
	case "summary":
		out.summary = e.Summary(now)
	case "advise":
		adv := e.Advisor()
		cons, nerr := adv.Normalize(adviseConstraints(r.N))
		if nerr != nil {
			return out, nerr
		}
		out.advise = adv.Advise(cons, out.from, out.to)
	default:
		err = fmt.Errorf("bench: no engine call for op %q", r.Op)
	}
	return out, err
}

// payload renders an engine result through the pkg/api DTO of its kind —
// the benchmark's own copy of the mapping the HTTP layer does, so the
// byte comparison in verify is against an independent rendering.
func (o engineOut) payload(now time.Time) any {
	switch o.op {
	case "unavailability":
		return &api.Unavailability{Market: o.market.String(), Contract: "spot", Unavailability: o.frac, Availability: 1 - o.frac}
	case "prices":
		out := make([]api.PricePoint, len(o.prices))
		for i, p := range o.prices {
			out[i] = api.PricePoint{At: p.At, Price: p.Price}
		}
		return out
	case "stable":
		out := make([]api.StableMarket, len(o.stable))
		for i, r := range o.stable {
			out[i] = api.StableMarket{Market: r.Market.String(), Crossings: r.Crossings, MTTR: r.MTTR, ODUnavailability: r.ODUnavailability}
		}
		return out
	case "volatile":
		out := make([]api.VolatileMarket, len(o.volatile))
		for i, r := range o.volatile {
			out[i] = api.VolatileMarket{Market: r.Market.String(), Crossings: r.Crossings, MaxRatio: r.MaxRatio, MeanHeld: r.MeanHeld, Watches: r.Watches}
		}
		return out
	case "fallback":
		out := make([]api.Fallback, len(o.fallback))
		for i, r := range o.fallback {
			out[i] = api.Fallback{Market: r.Market.String(), ODUnavailability: r.ODUnavailability, Crossings: r.Crossings}
		}
		return out
	case "summary":
		out := make([]api.RegionSummary, len(o.summary))
		for i, r := range o.summary {
			out[i] = api.RegionSummary{
				Region: string(r.Region), ODOutages: r.ODOutages, SpotOutages: r.SpotOutages,
				MeanODOutage: r.MeanODOutage, RejectedODProbes: r.RejectedODProbes, TotalODProbes: r.TotalODProbes,
				RejectedSpotPcnt: r.RejectedSpotPcnt, TotalSpotProbes: r.TotalSpotProbes,
				SpikesAboveOD: r.SpikesAboveOD, ObservedSpikesAll: r.ObservedSpikesAll,
			}
		}
		return out
	case "advise":
		return api.AdviseResponse{Now: now, AdviseResult: api.AdviseResult{From: o.from, To: o.to, Candidates: o.advise}}
	}
	return nil
}

// expectedBody renders what the service must answer for r at clock now,
// from the uncached oracle engine.
func expectedBody(oracle *query.Engine, r request, now time.Time) ([]byte, error) {
	var v any
	if r.Op == "batch" {
		resp := api.BatchResponse{Now: now}
		for _, p := range r.parts() {
			o, err := callEngine(oracle, p, now)
			if err != nil {
				return nil, err
			}
			res := api.Result{}
			switch p.Op {
			case "stable":
				res.Kind, res.Stable = api.KindStable, o.payload(now).([]api.StableMarket)
			case "summary":
				res.Kind, res.Summary = api.KindSummary, o.payload(now).([]api.RegionSummary)
			case "unavailability":
				res.Kind, res.Unavailability = api.KindUnavailability, o.payload(now).(*api.Unavailability)
			}
			resp.Results = append(resp.Results, res)
		}
		v = resp
	} else {
		op := r
		if r.Op == "revalidate" {
			op.Op = "unavailability"
		}
		o, err := callEngine(oracle, op, now)
		if err != nil {
			return nil, err
		}
		v = o.payload(now)
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// foldTimes is rung L4 for one request, split by fold family.
type foldTimes struct {
	total, crossings, overlap, prices time.Duration
}

// callFolds is rung L4: the public store folds the request's kind reads,
// called with the resolved window. It mirrors what the engine and advisor
// ask of the store, not their ranking or sorting.
func callFolds(db *store.Store, cat *market.Catalog, r request, now time.Time) foldTimes {
	var ft foldTimes
	timed := func(acc *time.Duration, fn func()) {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		*acc += d
		ft.total += d
	}
	var other time.Duration
	inRegion := func(id market.SpotID) bool { return id.Region() == benchRegion }
	for _, p := range r.parts() {
		from, to, _ := p.Window.Resolve(now)
		id, _ := market.ParseSpotID(p.Market)
		switch p.Op {
		case "unavailability":
			timed(&ft.overlap, func() { db.OutageOverlap(id, store.ProbeSpot, from, to) })
		case "revalidate":
			timed(&other, func() { db.Generation(id) })
		case "prices":
			timed(&ft.prices, func() { db.PricesIn(id, from, to) })
		case "stable":
			timed(&ft.crossings, func() { db.SpikeCrossingsWhere(from, to, inRegion) })
			timed(&ft.overlap, func() {
				for _, m := range cat.SpotMarkets() {
					if inRegion(m) {
						db.OutageOverlap(m, store.ProbeOnDemand, from, to)
					}
				}
			})
		case "volatile":
			var cs map[market.SpotID]store.CrossingStats
			timed(&ft.crossings, func() { cs = db.SpikeCrossingsWhere(from, to, inRegion) })
			timed(&other, func() {
				for m := range cs {
					db.RevocationsFor(m, from, to)
				}
			})
		case "fallback":
			cands := cat.UncorrelatedCandidates(id)
			timed(&ft.overlap, func() {
				for _, m := range cands {
					db.OutageOverlap(m, store.ProbeOnDemand, from, to)
				}
			})
			timed(&ft.crossings, func() {
				for _, m := range cands {
					db.CrossingStatsFor(m, from, to)
				}
			})
		case "summary":
			timed(&other, func() { db.RegionAggregates(now) })
		case "advise":
			// One loop per fold family (not one per market), so the clock
			// reads do not outweigh the folds being timed.
			var priced []market.SpotID
			timed(&other, func() {
				for _, m := range db.PricedMarkets() {
					if inRegion(m) {
						priced = append(priced, m)
					}
				}
			})
			timed(&ft.prices, func() {
				for _, m := range priced {
					db.PriceStatsIn(m, from, to)
				}
			})
			timed(&ft.crossings, func() {
				for _, m := range priced {
					db.CrossingStatsFor(m, from, to)
				}
			})
			timed(&ft.overlap, func() {
				for _, m := range priced {
					db.OutageOverlap(m, store.ProbeSpot, from, to)
					db.OutageOverlap(m, store.ProbeSpot, to.Add(-time.Second), to)
					db.OutageOverlap(m, store.ProbeOnDemand, to.Add(-time.Second), to)
				}
			})
			timed(&other, func() {
				for _, m := range priced {
					db.RevocationsFor(m, from, to)
				}
			})
		}
	}
	return ft
}
