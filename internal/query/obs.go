package query

import (
	"log/slog"
	"time"

	"spotlight/internal/obs"
)

// EnableMetrics arms the API's HTTP instrumentation: Handler() wraps
// every route with per-route/per-status counts, latency histograms, the
// in-flight gauge, and the 304 counter (obs.Instrument), and serves the
// registry itself as GET /metrics (Prometheus text) and GET /v2/metrics
// (JSON). Values other layers already count — rendered-answer hits,
// advisor memo hits, watch streams — register as scrape-time collectors.
// Call before Handler(); a nil registry leaves the API uninstrumented.
func (a *API) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	a.reg = reg
	a.slowQueries = reg.Counter("spotlight_slow_queries_total",
		"Requests that exceeded the slow-query threshold and were logged.")
	reg.CounterFunc("spotlight_query_cache_hits_total",
		"200 bodies served from the table of rendered answers.",
		func() float64 { h, _ := a.engine.CacheStats(); return float64(h) })
	reg.CounterFunc("spotlight_query_cache_misses_total",
		"Requests whose queries ran because the table held no body.",
		func() float64 { _, m := a.engine.CacheStats(); return float64(m) })
	adv := a.engine.Advisor()
	reg.CounterFunc("spotlight_advisor_memo_hits_total",
		"Advise calls answered from the generation-keyed memo.",
		func() float64 { h, _ := adv.MemoStats(); return float64(h) })
	reg.CounterFunc("spotlight_advisor_memo_misses_total",
		"Advise calls that ranked fresh.",
		func() float64 { _, m := adv.MemoStats(); return float64(m) })
	reg.CounterFunc("spotlight_advisor_rankings_total",
		"Rankings served by the advisor (memo hits + fresh ranks).",
		func() float64 { h, m := adv.MemoStats(); return float64(h + m) })
	reg.GaugeFunc("spotlight_watch_streams",
		"Currently open /v2/watch SSE streams.",
		func() float64 { return float64(a.watchers.Load()) })
}

// SetSlowQuery arms the slow-query log: any v1/v2 query request slower
// than threshold emits one structured log line with its per-stage
// breakdown (parse, cache probe, exec, encode) to logger (slog.Default
// when nil). Non-positive threshold disables tracing entirely — the
// request path then takes no clock readings beyond the metrics
// middleware's. Call before serving.
func (a *API) SetSlowQuery(threshold time.Duration, logger *slog.Logger) {
	a.slowQuery = threshold
	a.slowLog = logger
}

// stageTrace accumulates one request's per-stage timings. The zero
// value (tracing disabled) makes every step a single branch.
type stageTrace struct {
	enabled                    bool
	start, mark                time.Time
	parse, probe, exec, encode time.Duration
}

// newTrace starts a stage trace when slow-query logging is armed.
func (a *API) newTrace() stageTrace {
	if a.slowQuery <= 0 {
		return stageTrace{}
	}
	now := time.Now()
	return stageTrace{enabled: true, start: now, mark: now}
}

// step closes the current stage into d and opens the next.
func (t *stageTrace) step(d *time.Duration) {
	if !t.enabled {
		return
	}
	now := time.Now()
	*d = now.Sub(t.mark)
	t.mark = now
}

// finish emits the slow-query line when the request crossed the
// threshold: one structured record carrying the stage breakdown, so a
// p99 outlier on a dashboard resolves to "exec" vs "encode" without a
// profiler attached.
func (a *API) finish(t *stageTrace, kind string, status int) {
	if !t.enabled {
		return
	}
	total := time.Since(t.start)
	if total < a.slowQuery {
		return
	}
	a.slowQueries.Inc()
	lg := a.slowLog
	if lg == nil {
		lg = slog.Default()
	}
	lg.Warn("slow query",
		"kind", kind,
		"status", status,
		"total", total,
		"parse", t.parse,
		"cache_probe", t.probe,
		"exec", t.exec,
		"encode", t.encode,
	)
}
