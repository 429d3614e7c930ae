package query

import (
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/obs"
	"spotlight/pkg/api"
)

// API serves the query engine over HTTP/JSON. Two surfaces share one
// typed execution path (see v2.go):
//
//	GET  /v1/<kind>   — one query per round trip, parameters in the URL
//	POST /v2/query    — a batch of up to api.MaxBatchQueries typed specs
//
// The v1 endpoints are thin adapters: each URL is parsed into the same
// api.Query spec the batch envelope carries, so both versions accept
// relative windows (window=24h resolved against the service clock) as
// well as absolute from/to (RFC3339), and both return the api.Error
// envelope {code, message, details} on failure.
//
// Endpoints (market IDs use the "zone:type:product" form):
//
//	GET /v1/unavailability?market=Z:T:P&kind=od|spot&window=24h
//	GET /v1/stable?region=R&product=P&n=10&from=...&to=...
//	GET /v1/volatile?region=R&product=P&n=10&window=24h
//	GET /v1/fallback?market=Z:T:P&n=5&window=24h
//	GET /v1/prices?market=Z:T:P&window=24h
//	GET /v1/outages?market=Z:T:P&window=24h
//	GET /v1/predict?market=Z:T:P&ratio=1.5&horizon=15m&window=24h
//	GET /v1/reserved-value?market=Z:T:P&utilization=0.5&window=24h
//	GET /v1/markets?region=R&product=P
//	GET /v1/summary
//	POST /v2/query            {"queries": [{"kind": ..., ...}, ...]}
//	POST /v2/advise           — ranked market recommendations (advise.go)
//	GET  /v2/watch            — live events: SSE, or a follow stream (watch.go)
//	GET  /v2/health           — store + stream health (watch.go)
//	POST /v2/admin/promote    — follower → leader failover (followers only)
//
// See docs/api.md for the full schema reference and docs/streaming.md
// for the live stream.
type API struct {
	engine *Engine
	// Now supplies the "current" instant: the clock summary queries
	// aggregate at and relative windows resolve against. The daemon wires
	// it to the simulation clock.
	Now func() time.Time
	// epoch salts every ETag with this process's boot instant. Scope
	// generations are record counts that restart from zero with the
	// process, so without the salt a restarted service whose scope
	// happens to reach the same count would answer 304 to a tag minted
	// against different data. Watch resume tokens reuse it to pin a
	// token to one sequence space.
	epoch int64

	// cacheTTL emits Cache-Control max-age hints on query responses; 0
	// (the default) emits none. The daemon wires it to the wall-clock
	// tick interval: results cannot change faster than the study ticks.
	cacheTTL time.Duration

	// Live-stream state (watch.go): the subscriber cap and count, the
	// idle heartbeat interval, and the shutdown broadcast that tears
	// down every open stream.
	watchLimit     int
	watchers       atomic.Int64
	watchHeartbeat time.Duration
	streamShut     context.Context
	shutStreams    context.CancelFunc
	shutOnce       sync.Once
	// armOnce arms the store feed on the first watch request (and keeps
	// it armed until Shutdown), so brief reconnect gaps between watchers
	// stay ring-covered and resume exactly.
	armOnce sync.Once
	armed   atomic.Bool

	// replication, when set, contributes a follower's leader-subscription
	// state to /v2/health (nil on leaders).
	replication func() *api.HealthReplication
	// promote, when set, exposes POST /v2/admin/promote (followers only):
	// the daemon's failover hook that turns this node into the leader.
	promote func(force bool) error

	// Observability (obs.go): reg, when set by EnableMetrics, makes
	// Handler() instrument every route and serve /metrics + /v2/metrics;
	// slowQuery > 0 arms the per-request stage trace whose over-threshold
	// requests log one structured line to slowLog. All set before serving.
	reg         *obs.Registry
	slowQuery   time.Duration
	slowLog     *slog.Logger
	slowQueries *obs.Counter
}

// NewAPI builds the HTTP layer over an engine.
func NewAPI(engine *Engine, now func() time.Time) *API {
	if now == nil {
		now = time.Now
	}
	a := &API{
		engine:         engine,
		Now:            now,
		epoch:          time.Now().UnixNano(),
		watchLimit:     defaultWatchLimit,
		watchHeartbeat: defaultWatchHeartbeat,
	}
	a.streamShut, a.shutStreams = context.WithCancel(context.Background())
	return a
}

// SetCacheTTL turns on Cache-Control hints: every successful (or 304)
// query response carries "max-age" derived from d — the wall-clock
// interval between service ticks, i.e. how long an intermediary may
// serve the response without even revalidating. Non-positive d disables
// the header. Call before serving.
func (a *API) SetCacheTTL(d time.Duration) {
	a.cacheTTL = d
}

// SetReplication wires a follower's replication-status provider into
// /v2/health: each health request calls fn for a fresh snapshot. A
// disconnected follower reports status "degraded" (it keeps serving what
// it has, increasingly stale). Call before serving.
func (a *API) SetReplication(fn func() *api.HealthReplication) {
	a.replication = fn
}

// SetPromote exposes POST /v2/admin/promote backed by fn — the daemon's
// leader-failover hook. fn must be safe for concurrent calls and return
// an error when promotion is refused (not a follower, already promoted,
// or the split-brain guard fired without force). Call before serving;
// leaders leave it unset and the route answers 404.
func (a *API) SetPromote(fn func(force bool) error) {
	a.promote = fn
}

// handlePromote turns the node into the leader. Promotion is an
// explicit operator action (or a gateway/orchestrator one), so the
// endpoint is POST-only and never retried implicitly; ?force=1 skips
// the split-brain guard. A refusal is a 409-style client error carried
// in the standard error envelope.
func (a *API) handlePromote(w http.ResponseWriter, r *http.Request) {
	if a.promote == nil {
		http.NotFound(w, r)
		return
	}
	force := false
	switch v := r.URL.Query().Get("force"); v {
	case "", "0", "false":
	case "1", "true":
		force = true
	default:
		writeAPIErr(w, api.Errorf(api.CodeBadParam, "bad force %q (want 0 or 1)", v).WithDetail("param", "force"))
		return
	}
	if err := a.promote(force); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(api.Errorf(api.CodeBadRequest, "%s", err.Error()))
		return
	}
	writeJSON(w, api.PromoteResponse{Promoted: true, Now: a.Now()})
}

// SetETagSalt replaces the per-process ETag salt with a stable value —
// the durable store's persisted salt (store.Persister.Salt). Over a
// recovered store the generations a tag was minted against survive the
// restart, so with a stable salt the tags do too: a client that cached a
// response before the restart keeps getting 304s after it, and the e2e
// guarantee "recovered responses are byte-identical, ETags included"
// holds. Call before serving; in-memory deployments keep the boot salt.
func (a *API) SetETagSalt(salt uint64) {
	a.epoch = int64(salt)
}

// Handler returns the routed HTTP handler. When EnableMetrics armed the
// API, every route is wrapped with the shared HTTP instrumentation (the
// route label is the path as registered) and the registry itself is
// served as GET /metrics and GET /v2/metrics.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(a.reg, route, h))
	}
	handle("GET /v1/unavailability", "/v1/unavailability", a.v1(api.KindUnavailability, func(r api.Result) any { return r.Unavailability }))
	handle("GET /v1/stable", "/v1/stable", a.v1(api.KindStable, func(r api.Result) any { return r.Stable }))
	handle("GET /v1/volatile", "/v1/volatile", a.v1(api.KindVolatile, func(r api.Result) any { return r.Volatile }))
	handle("GET /v1/fallback", "/v1/fallback", a.v1(api.KindFallback, func(r api.Result) any { return r.Fallbacks }))
	handle("GET /v1/prices", "/v1/prices", a.v1(api.KindPrices, func(r api.Result) any { return r.Prices }))
	handle("GET /v1/outages", "/v1/outages", a.v1(api.KindOutages, func(r api.Result) any { return r.Outages }))
	handle("GET /v1/predict", "/v1/predict", a.v1(api.KindPredict, func(r api.Result) any { return r.Prediction }))
	handle("GET /v1/reserved-value", "/v1/reserved-value", a.v1(api.KindReservedValue, func(r api.Result) any { return r.ReservedValue }))
	handle("GET /v1/markets", "/v1/markets", a.v1(api.KindMarkets, func(r api.Result) any { return r.Markets }))
	handle("GET /v1/summary", "/v1/summary", a.v1(api.KindSummary, func(r api.Result) any { return r.Summary }))
	handle("POST /v2/query", "/v2/query", a.handleBatch)
	handle("POST /v2/advise", "/v2/advise", a.handleAdvise)
	handle("GET /v2/watch", "/v2/watch", a.handleWatch)
	handle("GET /v2/health", "/v2/health", a.handleHealth)
	handle("POST /v2/admin/promote", "/v2/admin/promote", a.handlePromote)
	if a.reg != nil {
		mux.Handle("GET /metrics", a.reg.TextHandler())
		mux.Handle("GET /v2/metrics", a.reg.JSONHandler())
	}
	return mux
}

// v1 adapts one query kind to a GET endpoint: parse the URL into the
// typed spec, evaluate it on the shared conditional path, and answer with
// the kind's bare payload (v1 responses carry the result directly,
// without the batch Result wrapper).
func (a *API) v1(kind api.Kind, pick func(api.Result) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := a.newTrace()
		q, aerr := queryFromURL(r, kind)
		a.conditional(w, r, &tr, string(kind), false, []api.Query{q}, aerr, func(now time.Time) (any, *api.Error) {
			res := a.exec(q, now)
			if res.Error != nil {
				return nil, res.Error
			}
			return pick(res), nil
		})
	}
}

// conditional is the request flow every query endpoint (/v1/*, /v2/query,
// /v2/advise) shares once its URL or body is parsed into specs: build the
// specs' table key, revalidate against If-None-Match (the tag is the
// queries' scope generation, so a 304 costs no query execution at all),
// serve a stored body when the engine's table holds one, and otherwise
// run the queries, answer 200 with the tag and store what was written.
// kind labels the request in the slow-query log and names its route in
// the key: a v1 kind, batch[n] or advise. echoNow marks the envelopes
// that open with the clock they were evaluated at, which a stored body
// leaves out. It closes the parse/cache_probe/exec/encode stages of tr,
// so every endpoint routed through here is in the slow-query log. aerr is
// the caller's parse failure, if any; errors are never stored or tagged.
func (a *API) conditional(w http.ResponseWriter, r *http.Request, tr *stageTrace, kind string, echoNow bool,
	qs []api.Query, aerr *api.Error, run func(now time.Time) (any, *api.Error)) {
	tr.step(&tr.parse)
	if aerr != nil {
		a.finish(tr, kind, writeAPIErr(w, aerr))
		return
	}
	// One clock reading per request: every relative window resolves
	// against the same instant the key was built at.
	now := a.Now()
	var kb [512]byte
	key, pre, keyed := a.appendKey(kb[:0], kind, qs, now)
	table := a.engine.cache
	if !keyed {
		table = nil
	}
	ans, hit := table.get(key)
	if !hit {
		ans.etag = etagOf(key[pre:])
	}
	tr.step(&tr.probe)
	if api.ETagMatches(r.Header.Get(api.HeaderIfNoneMatch), ans.etag) {
		a.setValidators(w, ans.etag)
		w.WriteHeader(http.StatusNotModified)
		a.finish(tr, kind, http.StatusNotModified)
		return
	}
	var head []byte // {"now":<now>, where the envelope echoes it
	if echoNow {
		t, err := now.MarshalJSON()
		head = append(append(append(make([]byte, 0, len(t)+8), `{"now":`...), t...), ',')
		hit = hit && err == nil // the encoder fails on this clock too
	}
	if hit {
		table.hits.Add(1)
	} else {
		if table != nil {
			table.misses.Add(1)
		}
		body, aerr := run(now)
		tr.step(&tr.exec)
		if aerr != nil {
			a.finish(tr, kind, writeAPIErr(w, aerr))
			return
		}
		// json.Encoder writes Marshal's bytes and a newline; the envelopes
		// that echo the clock open with it, so what is stored starts past head.
		b, err := json.Marshal(body)
		if err != nil {
			head = nil // json.Encoder writes nothing when encoding fails
		} else {
			ans.body = append(b, '\n')[len(head):]
			table.put(key, ans)
		}
	}
	a.setValidators(w, ans.etag)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(head)
	_, _ = w.Write(ans.body)
	tr.step(&tr.encode)
	a.finish(tr, kind, http.StatusOK)
}

// setValidators stamps a 200 or 304 query response's ETag and, once
// SetCacheTTL armed it, its max-age hint. Sub-second tick intervals round
// up: a max-age of 0 would mean "always revalidate", which is stricter
// than having no hint at all.
func (a *API) setValidators(w http.ResponseWriter, etag string) {
	w.Header().Set(api.HeaderETag, etag)
	if a.cacheTTL > 0 {
		w.Header().Set("Cache-Control", "max-age="+strconv.Itoa(int(math.Ceil(a.cacheTTL.Seconds()))))
	}
}

// queryFromURL parses a v1 GET URL into the typed query spec. Malformed
// values fail here with the field's error code; range/combination rules
// are enforced by exec, identically for both API versions. Presence is
// the one v1-only strictness: predict requires 'ratio' and
// reserved-value requires 'utilization' on the URL, while a v2 JSON spec
// cannot distinguish an omitted number from an explicit zero, so there
// the zero values are accepted as documented in pkg/api.
func queryFromURL(r *http.Request, kind api.Kind) (api.Query, *api.Error) {
	qs := r.URL.Query()
	q := api.Query{
		Kind:     kind,
		Window:   api.Window{Rel: qs.Get("window")},
		Market:   qs.Get("market"),
		Region:   qs.Get("region"),
		Product:  qs.Get("product"),
		Contract: qs.Get("kind"),
		Horizon:  qs.Get("horizon"),
	}
	for _, end := range [...]struct {
		name string
		t    *time.Time
	}{{"from", &q.From}, {"to", &q.To}} {
		if s := qs.Get(end.name); s != "" {
			t, err := time.Parse(time.RFC3339, s)
			if err != nil {
				return q, api.Errorf(api.CodeBadWindow, "bad '%s' %q (want RFC3339)", end.name, s)
			}
			*end.t = t
		}
	}
	if s := qs.Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return q, api.Errorf(api.CodeBadParam, "n must be a positive integer, got %q", s).WithDetail("param", "n")
		}
		q.N = n
	}
	if s := qs.Get("ratio"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return q, api.Errorf(api.CodeBadParam, "bad ratio %q (want a spike multiple)", s).WithDetail("param", "ratio")
		}
		q.Ratio = v
	} else if kind == api.KindPredict {
		return q, api.Errorf(api.CodeBadParam, "missing 'ratio' (spike multiple)").WithDetail("param", "ratio")
	}
	if s := qs.Get("utilization"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return q, api.Errorf(api.CodeBadParam, "bad utilization %q (want a fraction in [0,1])", s).WithDetail("param", "utilization")
		}
		q.Utilization = v
	} else if kind == api.KindReservedValue {
		return q, api.Errorf(api.CodeBadParam, "missing 'utilization' in [0,1]").WithDetail("param", "utilization")
	}
	return q, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeAPIErr writes the machine-readable error envelope with the status
// its code implies, and returns that status.
func writeAPIErr(w http.ResponseWriter, e *api.Error) int {
	status := http.StatusBadRequest
	if e.Code == api.CodeInternal {
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
	return status
}
