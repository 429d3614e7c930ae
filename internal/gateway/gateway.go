// Package gateway is SpotLight's scatter-gather front door: one HTTP
// endpoint fanning queries out over N store nodes (spotlightd leaders or
// followers) and reassembling the answers.
//
// Two deployment shapes share the code:
//
//   - Replica fleet (Partitioned=false): every node holds the full
//     store (a leader plus its followers). Each query routes whole to
//     one node — market-scoped queries by consistent hash of the market
//     (per-market cache affinity), scope-less ones by hash of their spec
//     — and the gateway is purely a load spreader.
//   - Partitioned fleet (Partitioned=true): markets are sharded across
//     nodes by the same consistent hash the ingest tier uses.
//     Market-scoped queries route to the owner; the scope-less
//     aggregations (summary, stable, volatile, advise) fan out to every
//     node and the gateway merges the partial results (counters sum
//     exactly, rankings re-rank; see docs/replication.md for the
//     caveats on fallback and predict, whose cross-market context stays
//     partition-local).
//
// A batch envelope is split per node, the node sub-batches run
// concurrently, and per-query error isolation survives the hop: an
// unreachable node fails its own queries with code "upstream" while the
// rest of the batch answers normally.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/obs"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

// Defaults.
const (
	// defaultTimeout bounds one upstream round trip.
	defaultTimeout = 10 * time.Second
	// defaultVirtualNodes is the ring points per node; 64 keeps the
	// keyspace split within a few percent of even for small fleets.
	defaultVirtualNodes = 64
	// defaultRankN mirrors the store nodes' default ranking size, so a
	// merged fan-out truncates where a single node would have.
	defaultRankN = 10
)

// Config wires one Gateway.
type Config struct {
	// Nodes are the upstream base URLs (at least one).
	Nodes []string
	// Partitioned declares that markets are sharded across Nodes rather
	// than replicated to all of them; it changes routing and turns on
	// fan-out merges for the scope-less aggregations.
	Partitioned bool
	// Timeout bounds each upstream round trip (default 10s). It is also
	// what a slow but live node can cost one read: failover moves on
	// only when an attempt fails.
	Timeout time.Duration
	// HTTPClient overrides the upstream transport (nil: default).
	HTTPClient *http.Client
}

// Gateway routes queries across the configured nodes. Build with New;
// serve Handler.
type Gateway struct {
	cfg     Config
	ring    ring
	clients []*client.Client
	proxies []*httputil.ReverseProxy
	rr      atomic.Uint64
	health  *tracker

	// reg/metrics are armed by EnableMetrics (see metrics.go); the
	// zero-value gwMetrics no-ops on every hot path.
	reg     *obs.Registry
	metrics *gwMetrics
}

// New validates the config and builds the gateway.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("gateway: at least one upstream node is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	g := &Gateway{
		cfg:     cfg,
		ring:    newRing(cfg.Nodes, defaultVirtualNodes),
		clients: make([]*client.Client, len(cfg.Nodes)),
		proxies: make([]*httputil.ReverseProxy, len(cfg.Nodes)),
		health:  newTracker(len(cfg.Nodes)),
		metrics: newGwMetrics(len(cfg.Nodes)),
	}
	for i, node := range cfg.Nodes {
		c, err := client.New(node, cfg.HTTPClient)
		if err != nil {
			return nil, fmt.Errorf("gateway: node %d: %w", i, err)
		}
		g.clients[i] = c
		u, err := url.Parse(node)
		if err != nil {
			return nil, fmt.Errorf("gateway: node %d: %w", i, err)
		}
		p := httputil.NewSingleHostReverseProxy(u)
		p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			writeErr(w, http.StatusBadGateway,
				api.Errorf(api.CodeUpstream, "upstream unreachable: %v", err).WithDetail("node", u.Host))
		}
		g.proxies[i] = p
	}
	return g, nil
}

// Handler returns the routed HTTP handler: the batch endpoint and the
// aggregated health are gateway-native; everything else (/v1/*,
// /v2/watch) proxies to one routed node, upstream ETags passing through
// untouched.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(g.reg, route, h))
	}
	handle("POST /v2/query", "/v2/query", g.handleBatch)
	handle("POST /v2/advise", "/v2/advise", g.handleAdvise)
	handle("GET /v2/health", "/v2/health", g.handleHealth)
	handle("GET /v2/watch", "/v2/watch", g.handleWatch)
	if g.reg != nil {
		mux.Handle("GET /metrics", g.reg.TextHandler())
		mux.Handle("GET /v2/metrics", g.reg.JSONHandler())
	}
	handle("/", "/v1/*", g.handleProxy)
	return mux
}

// mergeable reports whether a scope-less query of this kind can be
// fanned out and reassembled from partial stores. Advise qualifies: on a
// partitioned fleet each node ranks only the markets it holds prices
// for, the candidate sets are disjoint, and the union's top N is inside
// the merged per-partition top Ns.
func mergeable(k api.Kind) bool {
	switch k {
	case api.KindSummary, api.KindStable, api.KindVolatile, api.KindAdvise:
		return true
	}
	return false
}

// route picks the owning node for one query; fan is true when the query
// must instead go to every node and merge (partitioned scope-less
// aggregations).
func (g *Gateway) route(q api.Query) (node int, fan bool) {
	if q.Market != "" {
		return g.ring.pick(q.Market), false
	}
	if g.cfg.Partitioned && mergeable(q.Kind) {
		return 0, true
	}
	// Scope-less on a replica fleet (or catalog-backed kinds anywhere):
	// any node can answer; hash the spec so the same question keeps
	// hitting the same node's memoization cache.
	return g.ring.pick(string(q.Kind) + "|" + q.Region + "|" + q.Product + "|" + strconv.Itoa(q.N)), false
}

// handleBatch is the scatter-gather POST /v2/query: split the envelope
// per node, run the node sub-batches concurrently, reassemble in request
// order, merge the fanned-out aggregations.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxBatchBody)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "bad batch body: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "empty batch: supply at least one query"))
		return
	}
	if len(req.Queries) > api.MaxBatchQueries {
		writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeTooManyQueries, "batch of %d exceeds the limit", len(req.Queries)).
			WithDetail("limit", strconv.Itoa(api.MaxBatchQueries)).
			WithDetail("got", strconv.Itoa(len(req.Queries))))
		return
	}

	results, now, etag := g.scatter(r.Context(), req.Queries)
	if etag != "" {
		if api.ETagMatches(r.Header.Get(api.HeaderIfNoneMatch), etag) {
			w.Header().Set(api.HeaderETag, etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set(api.HeaderETag, etag)
	}
	writeJSON(w, api.BatchResponse{Now: now, Results: results})
}

// nodeCall is one upstream sub-batch: which original indexes it answers
// and what came back.
type nodeCall struct {
	idxs    []int
	queries []api.Query
	resp    *api.BatchResponse
	etag    string
	node    int // the node that answered, or the first that failed
	err     error
}

// scatter runs the queries across the fleet and reassembles results in
// request order. The returned clock is the newest upstream clock seen.
// The returned ETag is the merged gateway validator — an FNV-64a fold
// of every answering node's own ETag — minted only when every sub-batch
// succeeded and carried a tag; any failure, partial answer, or untagged
// upstream yields "" (no validator is safer than a wrong one).
func (g *Gateway) scatter(ctx context.Context, queries []api.Query) ([]api.Result, time.Time, string) {
	calls := make([]*nodeCall, len(g.clients))
	forNode := func(n int) *nodeCall {
		if calls[n] == nil {
			calls[n] = &nodeCall{}
		}
		return calls[n]
	}
	fanned := make([]bool, len(queries))
	for i, q := range queries {
		node, fan := g.route(q)
		if fan {
			fanned[i] = true
			for n := range g.clients {
				c := forNode(n)
				c.idxs = append(c.idxs, i)
				c.queries = append(c.queries, q)
			}
			continue
		}
		c := forNode(node)
		c.idxs = append(c.idxs, i)
		c.queries = append(c.queries, q)
	}

	cctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	var wg sync.WaitGroup
	for n, call := range calls {
		if call == nil {
			continue
		}
		wg.Add(1)
		go func(n int, call *nodeCall) {
			defer wg.Done()
			g.batchNode(cctx, n, call)
		}(n, call)
	}
	wg.Wait()

	var now time.Time
	results := make([]api.Result, len(queries))
	// fanParts[i] collects the per-node results of fanned-out query i;
	// fanMissing[i] the nodes whose share is absent from the merge.
	fanParts := make(map[int][]api.Result)
	fanMissing := make(map[int][]string)
	tagged := true
	var tagParts []string
	for _, call := range calls {
		if call == nil {
			continue
		}
		if call.err != nil {
			tagged = false
			for k, i := range call.idxs {
				if fanned[i] {
					// Degrade, don't die: the merge proceeds over the
					// partitions that answered, and the missing ones are
					// named in the result's partial list.
					fanMissing[i] = append(fanMissing[i], g.cfg.Nodes[call.node])
					continue
				}
				results[i] = api.Result{Kind: call.queries[k].Kind, Error: upstreamErr(g.cfg.Nodes[call.node], call.err)}
			}
			continue
		}
		if call.etag == "" {
			tagged = false
		} else {
			tagParts = append(tagParts, g.cfg.Nodes[call.node]+"\x00"+call.etag)
		}
		if call.resp.Now.After(now) {
			now = call.resp.Now
		}
		for k, i := range call.idxs {
			res := call.resp.Results[k]
			if !fanned[i] {
				results[i] = res
				continue
			}
			if res.Error != nil {
				// Spec-level errors (bad window, bad param) are the same
				// on every node; surface the first.
				results[i] = res
				fanParts[i] = nil
				continue
			}
			fanParts[i] = append(fanParts[i], res)
		}
	}
	for i := range queries {
		if !fanned[i] || results[i].Error != nil {
			continue
		}
		parts, missing := fanParts[i], fanMissing[i]
		if len(parts) == 0 {
			results[i] = api.Result{Kind: queries[i].Kind,
				Error: api.Errorf(api.CodeUpstream, "all %d partitions unreachable", len(g.clients))}
			continue
		}
		merged := mergeResults(queries[i], parts)
		if len(missing) > 0 {
			sort.Strings(missing)
			merged.Partial = missing
			g.metrics.partialMerges.Inc()
		}
		results[i] = merged
	}
	return results, now, g.mergedETag(tagged, tagParts)
}

// mergedETag folds the per-node upstream ETags into one strong gateway
// validator. Sorting makes the fold independent of node iteration
// order; the node URL rides along so two nodes coincidentally minting
// equal tags still produce a distinct merged value per fleet shape.
func (g *Gateway) mergedETag(tagged bool, parts []string) string {
	if !tagged || len(parts) == 0 {
		return ""
	}
	sort.Strings(parts)
	h := uint64(1469598103934665603) // FNV-64a offset basis
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= '\n'
		h *= 1099511628211
	}
	return fmt.Sprintf("\"gw-%016x\"", h)
}

// upstreamErr wraps a node failure in the wire envelope.
func upstreamErr(node string, err error) *api.Error {
	return api.Errorf(api.CodeUpstream, "store node unreachable: %v", err).WithDetail("node", node)
}

// mergeResults reassembles one fanned-out query from its per-partition
// answers.
func mergeResults(q api.Query, parts []api.Result) api.Result {
	out := api.Result{Kind: q.Kind}
	n := q.N
	if n <= 0 {
		n = defaultRankN
	}
	switch q.Kind {
	case api.KindSummary:
		var lists [][]api.RegionSummary
		for _, p := range parts {
			lists = append(lists, p.Summary)
		}
		out.Summary = mergeSummaries(lists)
	case api.KindStable:
		var lists [][]api.StableMarket
		for _, p := range parts {
			lists = append(lists, p.Stable)
		}
		out.Stable = mergeStable(lists, n)
	case api.KindVolatile:
		var lists [][]api.VolatileMarket
		for _, p := range parts {
			lists = append(lists, p.Volatile)
		}
		out.Volatile = mergeVolatile(lists, n)
	case api.KindAdvise:
		if q.Advise != nil && q.Advise.N > 0 {
			n = q.Advise.N
		}
		var lists []*api.AdviseResult
		for _, p := range parts {
			lists = append(lists, p.Advise)
		}
		out.Advise = mergeAdvise(lists, n)
	default:
		out.Error = api.Errorf(api.CodeInternal, "unmergeable fanned-out kind %q", q.Kind)
	}
	return out
}

// mergeSummaries merges per-partition region summaries: counters sum
// exactly; the two derived statistics (mean outage duration, rejected
// spot fraction) recombine weighted by their denominators, which
// reconstructs the whole-fleet value up to float rounding.
func mergeSummaries(lists [][]api.RegionSummary) []api.RegionSummary {
	type acc struct {
		api.RegionSummary
		outageWeighted time.Duration
		rejSpot        float64
	}
	byRegion := make(map[string]*acc)
	for _, rows := range lists {
		for _, row := range rows {
			a := byRegion[row.Region]
			if a == nil {
				a = &acc{RegionSummary: api.RegionSummary{Region: row.Region}}
				byRegion[row.Region] = a
			}
			a.ODOutages += row.ODOutages
			a.SpotOutages += row.SpotOutages
			a.RejectedODProbes += row.RejectedODProbes
			a.TotalODProbes += row.TotalODProbes
			a.TotalSpotProbes += row.TotalSpotProbes
			a.SpikesAboveOD += row.SpikesAboveOD
			a.ObservedSpikesAll += row.ObservedSpikesAll
			a.outageWeighted += row.MeanODOutage * time.Duration(row.ODOutages)
			a.rejSpot += row.RejectedSpotPcnt * float64(row.TotalSpotProbes)
		}
	}
	out := make([]api.RegionSummary, 0, len(byRegion))
	for _, a := range byRegion {
		s := a.RegionSummary
		if a.ODOutages > 0 {
			s.MeanODOutage = a.outageWeighted / time.Duration(a.ODOutages)
		}
		if a.TotalSpotProbes > 0 {
			s.RejectedSpotPcnt = a.rejSpot / float64(a.TotalSpotProbes)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// mergeStable re-ranks per-partition stability rows. Every node
// enumerates the full catalog (markets it does not own score zero), so
// rows dedupe per market by keeping the one with signal, then the
// fleet-wide ranking re-sorts with the nodes' own comparator.
func mergeStable(lists [][]api.StableMarket, n int) []api.StableMarket {
	best := make(map[string]api.StableMarket)
	for _, rows := range lists {
		for _, row := range rows {
			cur, ok := best[row.Market]
			if !ok || row.Crossings > cur.Crossings ||
				(row.Crossings == cur.Crossings && row.ODUnavailability > cur.ODUnavailability) {
				best[row.Market] = row
			}
		}
	}
	out := make([]api.StableMarket, 0, len(best))
	for _, row := range best {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Crossings != out[j].Crossings {
			return out[i].Crossings < out[j].Crossings
		}
		if out[i].ODUnavailability != out[j].ODUnavailability {
			return out[i].ODUnavailability < out[j].ODUnavailability
		}
		return out[i].Market < out[j].Market
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// mergeVolatile re-ranks per-partition volatility rows (only owning
// partitions produce a market's row, so the dedupe rarely fires).
func mergeVolatile(lists [][]api.VolatileMarket, n int) []api.VolatileMarket {
	best := make(map[string]api.VolatileMarket)
	for _, rows := range lists {
		for _, row := range rows {
			cur, ok := best[row.Market]
			if !ok || row.Crossings > cur.Crossings ||
				(row.Crossings == cur.Crossings && row.MaxRatio > cur.MaxRatio) {
				best[row.Market] = row
			}
		}
	}
	out := make([]api.VolatileMarket, 0, len(best))
	for _, row := range best {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Crossings != out[j].Crossings {
			return out[i].Crossings > out[j].Crossings
		}
		if out[i].MaxRatio != out[j].MaxRatio {
			return out[i].MaxRatio > out[j].MaxRatio
		}
		return out[i].Market < out[j].Market
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// mergeAdvise reassembles one fanned-out advise from its per-partition
// rankings: dedupe per market (a market priced on two nodes keeps the
// row built from more samples), re-rank with the advisor's own
// comparator, truncate, and renumber.
func mergeAdvise(lists []*api.AdviseResult, n int) *api.AdviseResult {
	out := &api.AdviseResult{}
	best := make(map[string]api.AdviseCandidate)
	for _, res := range lists {
		if res == nil {
			continue
		}
		if res.To.After(out.To) {
			out.From, out.To = res.From, res.To
		}
		for _, c := range res.Candidates {
			cur, ok := best[c.Market]
			if !ok || c.PriceSamples > cur.PriceSamples {
				best[c.Market] = c
			}
		}
	}
	cands := make([]api.AdviseCandidate, 0, len(best))
	for _, c := range best {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		if cands[i].InterruptionRate != cands[j].InterruptionRate {
			return cands[i].InterruptionRate < cands[j].InterruptionRate
		}
		return cands[i].Market < cands[j].Market
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	for i := range cands {
		cands[i].Rank = i + 1
	}
	out.Candidates = cands
	return out
}

// handleAdvise routes POST /v2/advise. On a replica fleet the request
// forwards whole to one node picked by hashing the constraint body —
// repeated asks hit the same node's advise memo, the node's ETag passes
// through untouched, and a dead node fails over to a healthy peer (the
// advise read is idempotent, so re-sending the buffered body is safe).
// On a partitioned fleet no single node has every market's price
// history, so the constraints fan out to every node through scatter and
// the rankings merge; missing partitions degrade the answer to partial
// (named in "partial") instead of failing it, and a full fan-out mints
// a merged gateway ETag honored against If-None-Match.
func (g *Gateway) handleAdvise(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxBatchBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "read advise body: %v", err))
		return
	}
	if !g.cfg.Partitioned {
		g.forward(w, r, g.ring.pick("advise|"+string(body)), body)
		return
	}
	var req api.AdviseRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "bad advise body: %v", err))
			return
		}
	}
	q := api.Query{Kind: api.KindAdvise, Window: req.Window, Advise: &req.AdviseConstraints}
	results, now, etag := g.scatter(r.Context(), []api.Query{q})
	res := results[0]
	if res.Error != nil {
		status := http.StatusBadRequest
		if res.Error.Code == api.CodeUpstream {
			status = http.StatusBadGateway
		}
		writeErr(w, status, res.Error)
		return
	}
	if res.Advise == nil {
		writeErr(w, http.StatusBadGateway, api.Errorf(api.CodeInternal, "advise fan-out returned no result"))
		return
	}
	if etag != "" && len(res.Partial) == 0 {
		if api.ETagMatches(r.Header.Get(api.HeaderIfNoneMatch), etag) {
			w.Header().Set(api.HeaderETag, etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set(api.HeaderETag, etag)
	}
	writeJSON(w, api.AdviseResponse{Now: now, AdviseResult: *res.Advise, Partial: res.Partial})
}

// handleWatch proxies one live stream to a node: market-scoped streams
// go to the market's owner; scope-less ones round-robin across the
// fleet — except on a partitioned fleet, where no single node sees every
// market's events, so the gateway refuses rather than silently serving a
// partial stream.
func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	if m := r.URL.Query().Get("market"); m != "" {
		n := g.ring.pick(m)
		if !g.cfg.Partitioned {
			// Any replica holds the full stream; skip ejected nodes so a
			// dead leader repoints watches to a live peer.
			n = g.firstHealthy(n)
		}
		g.proxies[n].ServeHTTP(w, r)
		return
	}
	if g.cfg.Partitioned {
		writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadParam,
			"a partitioned gateway serves only market-scoped watches (no node sees every market); subscribe per market or watch the nodes directly").
			WithDetail("param", "market"))
		return
	}
	g.proxies[g.firstHealthy(int(g.rr.Add(1))%len(g.proxies))].ServeHTTP(w, r)
}

// handleProxy routes the /v1/* surface. Market-scoped URLs go to the
// market's owner (with failover to a replica peer on a replica fleet).
// Scope-less URLs hash their full spec for cache affinity on a replica
// fleet; on a partitioned fleet the three mergeable aggregations are
// answered by scatter-gather here, and the rest (catalog-backed
// /v1/markets) go to any node. Every route uses the failover forwarder,
// so a dead node costs a retry, not a 502.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if m := q.Get("market"); m != "" {
		g.forward(w, r, g.ring.pick(m), nil)
		return
	}
	if g.cfg.Partitioned {
		var kind api.Kind
		switch r.URL.Path {
		case "/v1/summary":
			kind = api.KindSummary
		case "/v1/stable":
			kind = api.KindStable
		case "/v1/volatile":
			kind = api.KindVolatile
		}
		if kind != "" {
			g.v1Fanout(w, r, kind)
			return
		}
	}
	g.forward(w, r, g.ring.pick(r.URL.RequestURI()), nil)
}

// v1Fanout answers one mergeable /v1 GET on a partitioned fleet by
// running the equivalent batch query through scatter and writing the
// kind's bare payload, mirroring the nodes' own v1 adapter.
func (g *Gateway) v1Fanout(w http.ResponseWriter, r *http.Request, kind api.Kind) {
	qs := r.URL.Query()
	q := api.Query{
		Kind:    kind,
		Window:  api.Window{Rel: qs.Get("window")},
		Region:  qs.Get("region"),
		Product: qs.Get("product"),
	}
	if s := qs.Get("from"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadWindow, "bad 'from' %q (want RFC3339)", s))
			return
		}
		q.From = t
	}
	if s := qs.Get("to"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadWindow, "bad 'to' %q (want RFC3339)", s))
			return
		}
		q.To = t
	}
	if s := qs.Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadParam, "n must be a positive integer, got %q", s).WithDetail("param", "n"))
			return
		}
		q.N = n
	}
	results, _, etag := g.scatter(r.Context(), []api.Query{q})
	res := results[0]
	if res.Error != nil {
		status := http.StatusBadRequest
		if res.Error.Code == api.CodeUpstream {
			status = http.StatusBadGateway
		}
		writeErr(w, status, res.Error)
		return
	}
	if len(res.Partial) > 0 {
		// v1 payloads are bare (no envelope to carry the partial list),
		// so the degradation detail rides a response header.
		w.Header().Set(api.HeaderPartial, strings.Join(res.Partial, ","))
	} else if etag != "" {
		if api.ETagMatches(r.Header.Get(api.HeaderIfNoneMatch), etag) {
			w.Header().Set(api.HeaderETag, etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set(api.HeaderETag, etag)
	}
	switch kind {
	case api.KindSummary:
		writeJSON(w, res.Summary)
	case api.KindStable:
		writeJSON(w, res.Stable)
	case api.KindVolatile:
		writeJSON(w, res.Volatile)
	}
}

// handleHealth aggregates the fleet's health: every node is polled
// concurrently, the worst node status wins, and the per-node breakdown
// rides in the gateway arm.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	cctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
	defer cancel()
	nodes := make([]api.NodeHealth, len(g.clients))
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		now time.Time
	)
	for i := range g.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nh := api.NodeHealth{URL: g.cfg.Nodes[i]}
			h, err := g.clients[i].Health(cctx)
			if err != nil {
				nh.Status = "unreachable"
				nh.Error = err.Error()
				g.health.fail(i)
			} else {
				nh.Status = h.Status
				nh.Generation = h.Store.Generation
				g.health.succeed(i)
				mu.Lock()
				if h.Now.After(now) {
					now = h.Now
				}
				mu.Unlock()
			}
			nh.Breaker, nh.ConsecutiveFails = g.health.snapshot(i)
			nodes[i] = nh
		}(i)
	}
	wg.Wait()

	h := api.Health{
		Status: "ok",
		Now:    now,
		Store:  api.HealthStore{Mode: "gateway", Healthy: true},
		Gateway: &api.HealthGateway{
			Partitioned: g.cfg.Partitioned,
			Nodes:       nodes,
		},
	}
	for _, nh := range nodes {
		if nh.Status != "ok" {
			h.Status = "degraded"
			if nh.Status == "unreachable" {
				h.Store.Healthy = false
			}
		}
	}
	writeJSON(w, h)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, e *api.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
}
