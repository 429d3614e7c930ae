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

// postBatchRaw posts a raw /v2/query body, revalidating etag when set,
// and returns the response with its body read.
func postBatchRaw(t *testing.T, url string, body []byte, etag string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v2/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if etag != "" {
		req.Header.Set(api.HeaderIfNoneMatch, etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// usEastMarkets returns the first n us-east-1 spot markets of the catalog.
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
	db.Appender(id).AppendProbes(rs)
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
// batches and /v1 reads alike, ETags included (cross-checkable because
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
	// The batch forwards whole: status, body and ETag are the node's, byte
	// for byte.
	batch, _ := json.Marshal(api.BatchRequest{Queries: queries})
	viaGW, gwBody := postBatchRaw(t, gsrv.URL, batch, "")
	direct, directBody := postBatchRaw(t, srvA.URL, batch, "")
	if viaGW.StatusCode != http.StatusOK || direct.StatusCode != http.StatusOK {
		t.Fatalf("batch status via gateway %d, direct %d", viaGW.StatusCode, direct.StatusCode)
	}
	if !bytes.Equal(gwBody, directBody) {
		t.Errorf("gateway batch diverged from direct node\n via: %.300s\nnode: %.300s", gwBody, directBody)
	}
	batchTag := direct.Header.Get(api.HeaderETag)
	if batchTag == "" || viaGW.Header.Get(api.HeaderETag) != batchTag {
		t.Fatalf("gateway batch ETag = %q, direct %q", viaGW.Header.Get(api.HeaderETag), batchTag)
	}

	// A tag taken directly from a node revalidates through the gateway
	// under the node's If-None-Match rules — a weak-prefixed validator
	// (what caching intermediaries forward) and a list included.
	for _, v := range []string{batchTag, "W/" + batchTag, `"stale", W/` + batchTag} {
		resp, body := postBatchRaw(t, gsrv.URL, batch, v)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("gateway batch with If-None-Match %q answered %d (%q), want empty 304", v, resp.StatusCode, body)
		}
		if tag := resp.Header.Get(api.HeaderETag); tag != batchTag {
			t.Errorf("304 ETag = %q, want the node's %q", tag, batchTag)
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

// The node, not the gateway, judges a batch envelope: an empty, oversized
// or malformed batch relays the node's own 400 and error code. Only when
// no node answers does the gateway speak for itself: 502, code "upstream".
func TestReplicaBatchRelaysNodeErrorsAnd502sADeadFleet(t *testing.T) {
	live := newNode(t, store.New())
	g, err := New(Config{Nodes: []string{live.URL, deadURL()}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := gwServer(t, g)

	over := make([]api.Query, api.MaxBatchQueries+1)
	for i := range over {
		over[i] = api.Query{Kind: api.KindSummary}
	}
	overBody, _ := json.Marshal(api.BatchRequest{Queries: over})
	for _, tc := range []struct {
		name string
		body string
		code string
	}{
		{"empty", `{"queries":[]}`, api.CodeBadRequest},
		{"over the limit", string(overBody), api.CodeTooManyQueries},
		{"malformed", `{"queries":[`, api.CodeBadRequest},
	} {
		resp, body := postBatchRaw(t, gsrv.URL, []byte(tc.body), "")
		_, direct := postBatchRaw(t, live.URL, []byte(tc.body), "")
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Code != tc.code {
			t.Errorf("%s batch via gateway = %d %s, want 400 with code %q", tc.name, resp.StatusCode, body, tc.code)
		}
		if !bytes.Equal(body, direct) {
			t.Errorf("%s batch: gateway relayed %s, node said %s", tc.name, body, direct)
		}
	}

	dead, err := New(Config{Nodes: []string{deadURL(), deadURL()}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := json.Marshal(api.BatchRequest{Queries: []api.Query{{Kind: api.KindSummary}}})
	resp, body := postBatchRaw(t, gwServer(t, dead).URL, batch, "")
	var e api.Error
	if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(body, &e) != nil || e.Code != api.CodeUpstream {
		t.Fatalf("dead fleet batch = %d %s, want 502 with code %q", resp.StatusCode, body, api.CodeUpstream)
	}
	if resp.Header.Get(api.HeaderETag) != "" {
		t.Errorf("502 carries ETag %q", resp.Header.Get(api.HeaderETag))
	}
}
