package query

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"spotlight/internal/market"
	"spotlight/pkg/api"
)

// This file is the typed execution layer behind both API versions: every
// query — whether it arrives as a GET /v1/* URL or as one spec inside a
// POST /v2/query batch — is normalized into an api.Query and evaluated by
// exec, so the two surfaces cannot drift apart.

// Per-kind defaults applied when a spec leaves the knob at its zero value.
const (
	defaultStableN        = 10
	defaultFallbackN      = 5
	defaultPredictHorizon = 900 * time.Second
)

// handleBatch serves POST /v2/query: decode the envelope, fan the specs
// out across the engine, and answer each independently — one malformed or
// failing query never poisons its batchmates.
func (a *API) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr := a.newTrace()
	var req api.BatchRequest
	var aerr *api.Error
	switch err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxBatchBody)).Decode(&req); {
	case err != nil:
		aerr = api.Errorf(api.CodeBadRequest, "bad batch body: %v", err)
	case len(req.Queries) == 0:
		aerr = api.Errorf(api.CodeBadRequest, "empty batch: supply at least one query")
	case len(req.Queries) > api.MaxBatchQueries:
		aerr = api.Errorf(api.CodeTooManyQueries, "batch exceeds the per-request limit").
			WithDetail("limit", strconv.Itoa(api.MaxBatchQueries)).
			WithDetail("got", strconv.Itoa(len(req.Queries)))
	}
	// The envelope's ETag covers every spec's scope generation (plus the
	// clock when any spec resolves against it), so an unchanged batch
	// answers 304 without fanning out a single query. The echoed Now field
	// is evaluation metadata and intentionally outside the tag: a 304
	// asserts the results are unchanged, not the clock.
	a.conditional(w, r, &tr, batchKind(len(req.Queries)), req.Queries, aerr, func(now time.Time) (any, *api.Error) {
		resp := api.BatchResponse{Now: now, Results: make([]api.Result, len(req.Queries))}

		// Fan out across the engine. Queries are read-only and the store is
		// concurrency-safe, so the only bound needed is CPU parallelism.
		sem := make(chan struct{}, batchParallelism())
		var wg sync.WaitGroup
		for i, q := range req.Queries {
			wg.Add(1)
			go func(i int, q api.Query) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				resp.Results[i] = a.exec(q, now)
			}(i, q)
		}
		wg.Wait()
		return resp, nil
	})
}

// batchKind labels a batch request in the slow-query log by its size.
func batchKind(n int) string {
	return "batch[" + strconv.Itoa(n) + "]"
}

func batchParallelism() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// exec evaluates one typed query spec at service clock now.
func (a *API) exec(q api.Query, now time.Time) api.Result {
	res := api.Result{Kind: q.Kind}
	switch q.Kind {
	case api.KindUnavailability:
		res.Unavailability, res.Error = a.execUnavailability(q, now)
	case api.KindStable:
		res.Stable, res.Error = a.execStable(q, now)
	case api.KindVolatile:
		res.Volatile, res.Error = a.execVolatile(q, now)
	case api.KindFallback:
		res.Fallbacks, res.Error = a.execFallback(q, now)
	case api.KindPrices:
		res.Prices, res.Error = a.execPrices(q, now)
	case api.KindOutages:
		res.Outages, res.Error = a.execOutages(q, now)
	case api.KindPredict:
		res.Prediction, res.Error = a.execPredict(q, now)
	case api.KindReservedValue:
		res.ReservedValue, res.Error = a.execReservedValue(q, now)
	case api.KindMarkets:
		res.Markets, res.Error = a.execMarkets(q)
	case api.KindSummary:
		res.Summary = toAPISummary(a.engine.Summary(now))
	case api.KindAdvise:
		res.Advise, res.Error = a.execAdvise(q, now)
	default:
		res.Error = api.Errorf(api.CodeUnknownKind, "unknown query kind %q", string(q.Kind))
	}
	return res
}

// specMarket parses the spec's market ID.
func specMarket(q api.Query) (market.SpotID, *api.Error) {
	id, err := market.ParseSpotID(q.Market)
	if err != nil {
		return market.SpotID{}, api.Errorf(api.CodeBadMarket, "bad or missing market %q (want zone:type:product)", q.Market)
	}
	return id, nil
}

// specN validates the spec's result bound, applying the kind's default.
func specN(q api.Query, def int) (int, *api.Error) {
	if q.N == 0 {
		return def, nil
	}
	if q.N < 0 {
		return 0, api.Errorf(api.CodeBadParam, "n must be a positive integer, got %d", q.N).WithDetail("param", "n")
	}
	return q.N, nil
}

// engineErr maps an engine error onto the wire envelope.
func engineErr(err error) *api.Error {
	if errors.Is(err, ErrBadWindow) {
		return api.Errorf(api.CodeBadWindow, "%v", err)
	}
	return api.Errorf(api.CodeBadRequest, "%v", err)
}

func (a *API) execUnavailability(q api.Query, now time.Time) (*api.Unavailability, *api.Error) {
	id, aerr := specMarket(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	var frac float64
	var err error
	var contract string
	switch q.Contract {
	case "", "od", "on-demand":
		contract = "on-demand"
		frac, err = a.engine.ODUnavailability(id, from, to)
	case "spot":
		contract = "spot"
		frac, err = a.engine.SpotUnavailability(id, from, to)
	default:
		return nil, api.Errorf(api.CodeBadParam, "contract kind must be od or spot, got %q", q.Contract).WithDetail("param", "kind")
	}
	if err != nil {
		return nil, engineErr(err)
	}
	return &api.Unavailability{
		Market:         id.String(),
		Contract:       contract,
		Unavailability: frac,
		Availability:   1 - frac,
	}, nil
}

func (a *API) execStable(q api.Query, now time.Time) ([]api.StableMarket, *api.Error) {
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	n, aerr := specN(q, defaultStableN)
	if aerr != nil {
		return nil, aerr
	}
	rows, err := a.engine.TopStableMarkets(market.Region(q.Region), market.Product(q.Product), n, from, to)
	if err != nil {
		return nil, engineErr(err)
	}
	out := make([]api.StableMarket, len(rows))
	for i, r := range rows {
		out[i] = api.StableMarket{
			Market:           r.Market.String(),
			Crossings:        r.Crossings,
			MTTR:             r.MTTR,
			ODUnavailability: r.ODUnavailability,
		}
	}
	return out, nil
}

func (a *API) execVolatile(q api.Query, now time.Time) ([]api.VolatileMarket, *api.Error) {
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	n, aerr := specN(q, defaultStableN)
	if aerr != nil {
		return nil, aerr
	}
	rows, err := a.engine.TopVolatileMarkets(market.Region(q.Region), market.Product(q.Product), n, from, to)
	if err != nil {
		return nil, engineErr(err)
	}
	out := make([]api.VolatileMarket, len(rows))
	for i, r := range rows {
		out[i] = api.VolatileMarket{
			Market:    r.Market.String(),
			Crossings: r.Crossings,
			MaxRatio:  r.MaxRatio,
			MeanHeld:  r.MeanHeld,
			Watches:   r.Watches,
		}
	}
	return out, nil
}

func (a *API) execFallback(q api.Query, now time.Time) ([]api.Fallback, *api.Error) {
	id, aerr := specMarket(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	n, aerr := specN(q, defaultFallbackN)
	if aerr != nil {
		return nil, aerr
	}
	rows, err := a.engine.RecommendFallback(id, n, from, to)
	if err != nil {
		return nil, engineErr(err)
	}
	out := make([]api.Fallback, len(rows))
	for i, r := range rows {
		out[i] = api.Fallback{
			Market:           r.Market.String(),
			ODUnavailability: r.ODUnavailability,
			Crossings:        r.Crossings,
		}
	}
	return out, nil
}

func (a *API) execPrices(q api.Query, now time.Time) ([]api.PricePoint, *api.Error) {
	id, aerr := specMarket(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	pts, err := a.engine.Prices(id, from, to)
	if err != nil {
		return nil, engineErr(err)
	}
	out := make([]api.PricePoint, len(pts))
	for i, p := range pts {
		out[i] = api.PricePoint{At: p.At, Price: p.Price}
	}
	return out, nil
}

func (a *API) execOutages(q api.Query, now time.Time) ([]api.Outage, *api.Error) {
	id, aerr := specMarket(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	rows, err := a.engine.Outages(id, from, to)
	if err != nil {
		return nil, engineErr(err)
	}
	out := make([]api.Outage, len(rows))
	for i, o := range rows {
		out[i] = api.Outage{
			Market:   o.Market.String(),
			Contract: o.Kind,
			Start:    o.Start,
			End:      o.End,
			Duration: o.Duration,
		}
	}
	return out, nil
}

func (a *API) execPredict(q api.Query, now time.Time) (*api.Prediction, *api.Error) {
	id, aerr := specMarket(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	if q.Ratio < 0 || math.IsNaN(q.Ratio) || math.IsInf(q.Ratio, 1) {
		return nil, api.Errorf(api.CodeBadParam, "ratio must be a finite non-negative spike multiple, got %g", q.Ratio).WithDetail("param", "ratio")
	}
	horizon := defaultPredictHorizon
	if q.Horizon != "" {
		d, err := time.ParseDuration(q.Horizon)
		if err != nil || d <= 0 {
			return nil, api.Errorf(api.CodeBadParam, "bad horizon %q (want a positive duration like \"15m\")", q.Horizon).WithDetail("param", "horizon")
		}
		horizon = d
	}
	pred, err := a.engine.PredictOutage(id, q.Ratio, horizon, from, to)
	if err != nil {
		return nil, engineErr(err)
	}
	return &api.Prediction{
		Market:      pred.Market.String(),
		SpikeRatio:  pred.SpikeRatio,
		Probability: pred.Probability,
		Samples:     pred.Samples,
		Basis:       string(pred.Basis),
	}, nil
}

func (a *API) execReservedValue(q api.Query, now time.Time) (*api.ReservedValue, *api.Error) {
	id, aerr := specMarket(q)
	if aerr != nil {
		return nil, aerr
	}
	from, to, aerr := q.Window.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	if q.Utilization < 0 || q.Utilization > 1 || math.IsNaN(q.Utilization) {
		return nil, api.Errorf(api.CodeBadParam, "utilization must be in [0,1], got %g", q.Utilization).WithDetail("param", "utilization")
	}
	rv, err := a.engine.ReservedValue(id, q.Utilization, from, to)
	if err != nil {
		return nil, engineErr(err)
	}
	return &api.ReservedValue{
		Market:                  rv.Market.String(),
		ODHourly:                rv.ODHourly,
		ReservedEffectiveHourly: rv.ReservedEffectiveHourly,
		BreakEvenUtilization:    rv.BreakEvenUtilization,
		ODUnavailability:        rv.ODUnavailability,
		PlannedUtilization:      rv.PlannedUtilization,
		Reserve:                 rv.Reserve,
		Reason:                  rv.Reason,
	}, nil
}

func (a *API) execMarkets(q api.Query) ([]api.MarketInfo, *api.Error) {
	rows, err := a.engine.Markets(market.Region(q.Region), market.Product(q.Product))
	if err != nil {
		return nil, engineErr(err)
	}
	out := make([]api.MarketInfo, len(rows))
	for i, r := range rows {
		out[i] = api.MarketInfo{
			Market:        r.Market.String(),
			OnDemandPrice: r.OnDemandPrice,
			Family:        r.Family,
			Units:         r.Units,
		}
	}
	return out, nil
}

// toAPISummary converts the engine's region aggregates to wire DTOs.
func toAPISummary(rows []RegionSummary) []api.RegionSummary {
	out := make([]api.RegionSummary, len(rows))
	for i, r := range rows {
		out[i] = api.RegionSummary{
			Region:            string(r.Region),
			ODOutages:         r.ODOutages,
			SpotOutages:       r.SpotOutages,
			MeanODOutage:      r.MeanODOutage,
			RejectedODProbes:  r.RejectedODProbes,
			TotalODProbes:     r.TotalODProbes,
			RejectedSpotPcnt:  r.RejectedSpotPcnt,
			TotalSpotProbes:   r.TotalSpotProbes,
			SpikesAboveOD:     r.SpikesAboveOD,
			ObservedSpikesAll: r.ObservedSpikesAll,
		}
	}
	return out
}
