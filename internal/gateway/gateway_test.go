package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

var t0 = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)

func TestRingStableAndBalanced(t *testing.T) {
	nodes := []string{"http://a:8080", "http://b:8080"}
	r := newRing(nodes, defaultVirtualNodes)
	hits := make([]int, len(nodes))
	for _, id := range market.New().SpotMarkets() {
		n := r.pick(id.String())
		if again := r.pick(id.String()); again != n {
			t.Fatalf("pick(%s) unstable: %d then %d", id, n, again)
		}
		hits[n]++
	}
	for i, h := range hits {
		if h == 0 {
			t.Errorf("node %d owns no markets: distribution %v", i, hits)
		}
	}
}

func TestMergeSummaries(t *testing.T) {
	lists := [][]api.RegionSummary{
		{{Region: "us-east-1", ODOutages: 2, MeanODOutage: 10 * time.Minute, TotalODProbes: 100, TotalSpotProbes: 50, RejectedSpotPcnt: 0.10}},
		{{Region: "us-east-1", ODOutages: 1, MeanODOutage: 40 * time.Minute, TotalODProbes: 20, TotalSpotProbes: 150, RejectedSpotPcnt: 0.30},
			{Region: "eu-west-1", ODOutages: 0, TotalODProbes: 5}},
	}
	got := mergeSummaries(lists)
	if len(got) != 2 || got[0].Region != "eu-west-1" || got[1].Region != "us-east-1" {
		t.Fatalf("merged regions = %+v", got)
	}
	ue := got[1]
	if ue.ODOutages != 3 || ue.TotalODProbes != 120 || ue.TotalSpotProbes != 200 {
		t.Errorf("counters did not sum: %+v", ue)
	}
	// (2*10m + 1*40m) / 3 = 20m, weighted by outage count.
	if ue.MeanODOutage != 20*time.Minute {
		t.Errorf("MeanODOutage = %v, want 20m", ue.MeanODOutage)
	}
	// (0.10*50 + 0.30*150) / 200 = 0.25, weighted by spot probes.
	if ue.RejectedSpotPcnt != 0.25 {
		t.Errorf("RejectedSpotPcnt = %v, want 0.25", ue.RejectedSpotPcnt)
	}
}

func TestMergeStableRanksFleetWide(t *testing.T) {
	// Node 0 owns mkt-a (2 crossings); node 1 reports the catalog zero
	// for it. Node 1 owns mkt-b (0 crossings, some unavailability).
	lists := [][]api.StableMarket{
		{{Market: "mkt-a", Crossings: 2, ODUnavailability: 0.1}, {Market: "mkt-b"}},
		{{Market: "mkt-a"}, {Market: "mkt-b", ODUnavailability: 0.05}},
	}
	got := mergeStable(lists, 1)
	if len(got) != 1 || got[0].Market != "mkt-b" {
		t.Fatalf("merged ranking = %+v, want mkt-b first (fewest crossings wins)", got)
	}
	if got[0].ODUnavailability != 0.05 {
		t.Errorf("mkt-b row = %+v, want the owning node's signal kept", got[0])
	}
}

func TestMergeVolatileRanksFleetWide(t *testing.T) {
	lists := [][]api.VolatileMarket{
		{{Market: "mkt-a", Crossings: 5, MaxRatio: 2.0}},
		{{Market: "mkt-b", Crossings: 5, MaxRatio: 3.0}, {Market: "mkt-c", Crossings: 1, MaxRatio: 9.0}},
	}
	got := mergeVolatile(lists, 2)
	if len(got) != 2 || got[0].Market != "mkt-b" || got[1].Market != "mkt-a" {
		t.Fatalf("merged ranking = %+v, want [mkt-b mkt-a] (crossings desc, ratio desc)", got)
	}
}

// newNode builds one real store node: a fresh store served by the query
// API under the shared test clock.
func newNode(t *testing.T, db *store.Store) *httptest.Server {
	t.Helper()
	a := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	t.Cleanup(a.Shutdown)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// gwServer fronts the gateway handler with a test server.
func gwServer(t *testing.T, g *Gateway) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postBatch(t *testing.T, url string, req api.BatchRequest) (int, api.BatchResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out api.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode batch response: %v: %s", err, raw)
		}
	}
	return resp.StatusCode, out
}

// usEastMarkets returns catalog spot markets in us-east-1.
// partitionedMarkets returns n us-east-1 spot markets chosen so every
// ring partition owns at least one. The ring hashes the node URLs, and
// httptest ports are ephemeral, so a fixed prefix of the catalog can
// land entirely on one node for an unlucky port draw — scan the whole
// region and seed each partition first instead.
func partitionedMarkets(t *testing.T, g *Gateway, parts, n int) []market.SpotID {
	t.Helper()
	byNode := make([][]market.SpotID, parts)
	for _, id := range market.New().SpotMarkets() {
		if strings.HasPrefix(string(id.Zone), "us-east-1") {
			p := g.ring.pick(id.String())
			byNode[p] = append(byNode[p], id)
		}
	}
	var ids []market.SpotID
	for p, owned := range byNode {
		if len(owned) == 0 {
			t.Fatalf("ring assigned no us-east-1 market to partition %d", p)
		}
		ids = append(ids, owned[0])
		byNode[p] = owned[1:]
	}
	for p, idle := 0, 0; len(ids) < n && idle < parts; p = (p + 1) % parts {
		if len(byNode[p]) == 0 {
			idle++
			continue
		}
		idle = 0
		ids = append(ids, byNode[p][0])
		byNode[p] = byNode[p][1:]
	}
	if len(ids) < n {
		t.Fatalf("catalog has only %d us-east-1 spot markets, want %d", len(ids), n)
	}
	return ids
}

func usEastMarkets(t *testing.T, n int) []market.SpotID {
	t.Helper()
	var ids []market.SpotID
	for _, id := range market.New().SpotMarkets() {
		if strings.HasPrefix(string(id.Zone), "us-east-1") {
			ids = append(ids, id)
			if len(ids) == n {
				return ids
			}
		}
	}
	t.Fatalf("catalog has only %d us-east-1 spot markets, want %d", len(ids), n)
	return nil
}

// seedProbes appends count on-demand probes (rejected of them rejected)
// for one market.
func seedProbes(db *store.Store, id market.SpotID, count, rejected int) {
	var rs []store.ProbeRecord
	for i := 0; i < count; i++ {
		rs = append(rs, store.ProbeRecord{
			At: t0.Add(time.Duration(i) * time.Minute), Market: id,
			Kind: store.ProbeOnDemand, Rejected: i < rejected, Code: "ICE",
		})
	}
	// Close any outage the rejected run opened, so summaries are settled.
	rs = append(rs, store.ProbeRecord{At: t0.Add(time.Duration(count) * time.Minute), Market: id, Kind: store.ProbeOnDemand})
	db.AppendProbes(rs)
}

// A partitioned fleet: each market's records live only on its ring
// owner. The gateway must answer market queries from the owner, merge
// the scope-less summary across partitions, and isolate a dead
// partition's failures per query.
func TestPartitionedScatterGather(t *testing.T) {
	dbs := []*store.Store{store.New(), store.New()}
	srv0, srv1 := newNode(t, dbs[0]), newNode(t, dbs[1])
	nodes := []string{srv0.URL, srv1.URL}
	g, err := New(Config{Nodes: nodes, Partitioned: true, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := gwServer(t, g)

	// Shard by the gateway's own ring, and find one market per node so
	// the routing assertions are deterministic.
	perNode := make([]market.SpotID, len(nodes))
	total := 0
	for i, id := range partitionedMarkets(t, g, len(nodes), 8) {
		n := g.ring.pick(id.String())
		count := 10 + i
		seedProbes(dbs[n], id, count, 2)
		total += count + 1 // +1 settling probe
		perNode[n] = id
	}
	for n, id := range perNode {
		if id == (market.SpotID{}) {
			t.Fatalf("ring assigned no test market to node %d", n)
		}
	}

	window := api.Window{From: t0, To: t0.Add(24 * time.Hour)}
	status, resp := postBatch(t, gsrv.URL, api.BatchRequest{Queries: []api.Query{
		{Kind: api.KindSummary},
		{Kind: api.KindUnavailability, Market: perNode[0].String(), Window: window},
		{Kind: api.KindUnavailability, Market: perNode[1].String(), Window: window},
		{Kind: api.KindStable, Region: "us-east-1", N: 3, Window: window},
	}})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Fatalf("query %d failed: %+v", i, res.Error)
		}
	}
	var usEast *api.RegionSummary
	for i := range resp.Results[0].Summary {
		if resp.Results[0].Summary[i].Region == "us-east-1" {
			usEast = &resp.Results[0].Summary[i]
		}
	}
	if usEast == nil || usEast.TotalODProbes != total {
		t.Fatalf("merged summary = %+v, want %d total OD probes across both partitions", resp.Results[0].Summary, total)
	}
	if len(resp.Results[3].Stable) != 3 {
		t.Fatalf("merged stable ranking has %d rows, want 3", len(resp.Results[3].Stable))
	}

	// The /v1 surface merges the same way.
	r1, err := http.Get(gsrv.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	var rows []api.RegionSummary
	if err := json.NewDecoder(r1.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if len(rows) == 0 || rows[0].TotalODProbes != total {
		t.Fatalf("/v1/summary via gateway = %+v, want %d probes", rows, total)
	}

	// Scope-less watches cannot be served from a partitioned fleet.
	rw, err := http.Get(gsrv.URL + "/v2/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Body.Close()
	if rw.StatusCode != http.StatusBadRequest {
		t.Fatalf("partitioned scope-less watch status = %d, want 400", rw.StatusCode)
	}

	// Kill partition 1: its market-scoped queries fail with code
	// "upstream" naming the node, fanned queries degrade to a partial
	// merge over the answering partitions, and partition 0's queries
	// still answer.
	srv1.Close()
	status, resp = postBatch(t, gsrv.URL, api.BatchRequest{Queries: []api.Query{
		{Kind: api.KindUnavailability, Market: perNode[0].String(), Window: window},
		{Kind: api.KindUnavailability, Market: perNode[1].String(), Window: window},
		{Kind: api.KindSummary},
	}})
	if status != http.StatusOK {
		t.Fatalf("degraded batch status = %d, want 200 with per-query errors", status)
	}
	if err := resp.Results[0].Error; err != nil {
		t.Errorf("live partition's query failed: %+v", err)
	}
	if err := resp.Results[1].Error; err == nil || err.Code != api.CodeUpstream {
		t.Errorf("dead partition's market query error = %+v, want code %q", err, api.CodeUpstream)
	} else if err.Details["node"] != nodes[1] {
		t.Errorf("dead partition's market query names node %q, want %q", err.Details["node"], nodes[1])
	}
	if err := resp.Results[2].Error; err != nil {
		t.Errorf("fanned summary on degraded fleet failed: %+v, want partial merge", err)
	} else if p := resp.Results[2].Partial; len(p) != 1 || p[0] != nodes[1] {
		t.Errorf("fanned summary partial = %v, want [%s]", p, nodes[1])
	}

	// Aggregated health: degraded, with the dead node called out.
	rh, err := http.Get(gsrv.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	defer rh.Body.Close()
	var h api.Health
	if err := json.NewDecoder(rh.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Store.Mode != "gateway" || h.Gateway == nil {
		t.Fatalf("degraded fleet health = %+v", h)
	}
	if len(h.Gateway.Nodes) != 2 || h.Gateway.Nodes[1].Status != "unreachable" {
		t.Fatalf("per-node health = %+v, want node 1 unreachable", h.Gateway.Nodes)
	}
}

// A node that keeps failing must show up in aggregated health with its
// breaker open — the signal an operator (and the breaker_opens metric)
// pages on — while the surviving node stays closed.
func TestHealthEjectedNodeBreakerOpen(t *testing.T) {
	live := newNode(t, store.New())
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadSrv.URL
	deadSrv.Close() // dead node: connection refused from here on

	g, err := New(Config{
		Nodes:   []string{live.URL, deadURL},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.EnableMetrics(reg)
	gsrv := gwServer(t, g)

	// Each health poll fails the dead node once; the third crosses the
	// threshold, and the poll snapshots breaker state after recording the
	// failure, so the third response already shows it open.
	var h api.Health
	for i := 0; i < failThreshold; i++ {
		h = getHealth(t, gsrv.URL)
	}
	if h.Status != "degraded" || h.Gateway == nil || len(h.Gateway.Nodes) != 2 {
		t.Fatalf("health = %+v, want degraded with 2 nodes", h)
	}
	dead := h.Gateway.Nodes[1]
	if dead.Status != "unreachable" || dead.Breaker != "open" || dead.ConsecutiveFails < failThreshold {
		t.Fatalf("dead node = %+v, want unreachable with an open breaker", dead)
	}
	if h.Gateway.Nodes[0].Breaker != "closed" || h.Gateway.Nodes[0].Status != "ok" {
		t.Fatalf("live node = %+v, want ok with a closed breaker", h.Gateway.Nodes[0])
	}
	if n := reg.Counter("spotlight_gateway_breaker_opens_total", "", "node", deadURL).Value(); n != 1 {
		t.Errorf("breaker_opens_total{node=%s} = %v, want 1", deadURL, n)
	}
}

// getHealth fetches and decodes the gateway's aggregated GET /v2/health.
func getHealth(t *testing.T, baseURL string) api.Health {
	t.Helper()
	resp, err := http.Get(baseURL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// A replica fleet: both nodes serve the same store, so any routing is
// correct — the gateway's answers must match a direct node's exactly,
// and proxied /v1 reads keep the node's ETag (cross-checkable because
// replicas share the leader's salt; here both nodes are one API).
func TestReplicaFleetMatchesDirect(t *testing.T) {
	db := store.New()
	ids := usEastMarkets(t, 4)
	for i, id := range ids {
		seedProbes(db, id, 8+i, 1)
	}
	// One shared API instance behind two node URLs: the strongest form of
	// "identical replicas", so any divergence is the gateway's fault.
	a := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	t.Cleanup(a.Shutdown)
	srvA, srvB := httptest.NewServer(a.Handler()), httptest.NewServer(a.Handler())
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)

	g, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := gwServer(t, g)

	window := api.Window{From: t0, To: t0.Add(24 * time.Hour)}
	queries := []api.Query{
		{Kind: api.KindSummary},
		{Kind: api.KindStable, Region: "us-east-1", N: 4, Window: window},
		{Kind: api.KindUnavailability, Market: ids[0].String(), Window: window},
		{Kind: api.KindUnavailability, Market: ids[3].String(), Window: window},
	}
	status, viaGW := postBatch(t, gsrv.URL, api.BatchRequest{Queries: queries})
	if status != http.StatusOK {
		t.Fatalf("gateway batch status = %d", status)
	}
	statusD, direct := postBatch(t, srvA.URL, api.BatchRequest{Queries: queries})
	if statusD != http.StatusOK {
		t.Fatalf("direct batch status = %d", statusD)
	}
	got, _ := json.Marshal(viaGW.Results)
	want, _ := json.Marshal(direct.Results)
	if string(got) != string(want) {
		t.Errorf("gateway batch diverged from direct node\n via: %.300s\nnode: %.300s", got, want)
	}
	if !viaGW.Now.Equal(direct.Now) {
		t.Errorf("gateway Now = %v, direct %v", viaGW.Now, direct.Now)
	}

	// The gateway's merged batch tag revalidates under the same
	// If-None-Match rules as a node's — a weak-prefixed validator (what
	// caching intermediaries forward) included.
	batchBody, _ := json.Marshal(api.BatchRequest{Queries: queries})
	var batchTag string
	for _, tc := range []struct {
		validator func() string
		want      int
	}{
		{func() string { return "" }, http.StatusOK},
		{func() string { return batchTag }, http.StatusNotModified},
		{func() string { return "W/" + batchTag }, http.StatusNotModified},
		{func() string { return `"stale", W/` + batchTag }, http.StatusNotModified},
	} {
		req, _ := http.NewRequest(http.MethodPost, gsrv.URL+"/v2/query", bytes.NewReader(batchBody))
		if v := tc.validator(); v != "" {
			req.Header.Set(api.HeaderIfNoneMatch, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("gateway batch with If-None-Match %q answered %d, want %d", tc.validator(), resp.StatusCode, tc.want)
		}
		if batchTag = resp.Header.Get(api.HeaderETag); batchTag == "" {
			t.Fatal("gateway batch response carries no ETag")
		}
	}

	// Proxied /v1 keeps the upstream ETag and honors validators through
	// the gateway.
	path := "/v1/summary"
	rd, err := http.Get(srvA.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rd.Body)
	rd.Body.Close()
	etag := rd.Header.Get("ETag")
	rg, err := http.Get(gsrv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rg.Body)
	rg.Body.Close()
	if etag == "" || rg.Header.Get("ETag") != etag {
		t.Fatalf("proxied ETag = %q, direct %q", rg.Header.Get("ETag"), etag)
	}
	req, _ := http.NewRequest(http.MethodGet, gsrv.URL+path, nil)
	req.Header.Set("If-None-Match", etag)
	rnm, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rnm.Body.Close()
	if rnm.StatusCode != http.StatusNotModified {
		t.Fatalf("validator through gateway answered %d, want 304", rnm.StatusCode)
	}
}
