package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// deadURL returns the address of a server that has already shut down:
// connections to it are refused.
func deadURL() string {
	s := httptest.NewServer(http.NotFoundHandler())
	s.Close()
	return s.URL
}

// A replica fleet in which two of three nodes refuse connections answers
// every idempotent read from the survivor from the very first request —
// batch, market-scoped /v1 GET and /v2/advise alike — even when the
// ring's first two picks are the dead nodes.
func TestReplicaFleetFailsOverToTheLastLiveNode(t *testing.T) {
	db := store.New()
	live := newNode(t, db)
	g, err := New(Config{Nodes: []string{live.URL, deadURL(), deadURL()}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := gwServer(t, g)

	// Rotation from node 1 tries 1, then 2, then the survivor 0.
	const primary = 1
	var id market.SpotID
	for _, m := range market.New().SpotMarkets() {
		if strings.HasPrefix(string(m.Zone), "us-east-1") && g.ring.pick(m.String()) == primary {
			id = m
			break
		}
	}
	if id == (market.SpotID{}) {
		t.Fatal("ring routes no us-east-1 market to node 1")
	}
	seedProbes(db, id, 10, 2)
	seedPrices(db, id, 0.05)
	window := api.Window{From: t0, To: t0.Add(24 * time.Hour)}

	// Batch: pick one whose body hashes to node 1 as well; its bytes and
	// ETag are the survivor's own.
	var batch []byte
	for k := 0; ; k++ {
		bw := api.Window{From: t0, To: window.To.Add(time.Duration(k) * time.Minute)}
		batch, _ = json.Marshal(api.BatchRequest{Queries: []api.Query{
			{Kind: api.KindUnavailability, Market: id.String(), Window: bw},
			{Kind: api.KindPrices, Market: id.String(), Window: bw},
		}})
		if g.ring.pick("batch|"+string(batch)) == primary {
			break
		}
	}
	viaGW, gwBody := postBatchRaw(t, gsrv.URL, batch, "")
	direct, directBody := postBatchRaw(t, live.URL, batch, "")
	if viaGW.StatusCode != http.StatusOK {
		t.Fatalf("gateway batch status = %d body=%s", viaGW.StatusCode, gwBody)
	}
	if !bytes.Equal(gwBody, directBody) {
		t.Errorf("gateway batch diverged from the survivor\n via: %.300s\nnode: %.300s", gwBody, directBody)
	}
	if tag := viaGW.Header.Get(api.HeaderETag); tag == "" || tag != direct.Header.Get(api.HeaderETag) {
		t.Errorf("gateway batch ETag = %q, survivor %q", tag, direct.Header.Get(api.HeaderETag))
	}

	// Market-scoped /v1 GET: proxied bytes and ETag.
	path := "/v1/unavailability?market=" + url.QueryEscape(id.String()) + "&kind=od&from=" +
		url.QueryEscape(window.From.Format(time.RFC3339)) + "&to=" + url.QueryEscape(window.To.Format(time.RFC3339))
	get := func(base string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}
	viaGW, gwBody = get(gsrv.URL)
	direct, directBody = get(live.URL)
	if viaGW.StatusCode != http.StatusOK || !bytes.Equal(gwBody, directBody) {
		t.Errorf("gateway /v1 = %d %.300s, survivor %.300s", viaGW.StatusCode, gwBody, directBody)
	}
	if tag := viaGW.Header.Get(api.HeaderETag); tag == "" || tag != direct.Header.Get(api.HeaderETag) {
		t.Errorf("gateway /v1 ETag = %q, survivor %q", tag, direct.Header.Get(api.HeaderETag))
	}

	// Advise: pick constraints whose body hashes to node 1 as well; n
	// stays in its valid range, and the window grows once every n missed.
	var areq api.AdviseRequest
	for k := 0; ; k++ {
		areq = api.AdviseRequest{
			AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 1 + k%100},
			Window:            api.Window{From: t0, To: window.To.Add(time.Duration(k/100) * time.Minute)},
		}
		body, _ := json.Marshal(areq)
		if g.ring.pick("advise|"+string(body)) == primary {
			break
		}
	}
	viaGW, gwBody = postAdviseRaw(t, gsrv.URL, areq, "")
	direct, directBody = postAdviseRaw(t, live.URL, areq, "")
	if viaGW.StatusCode != http.StatusOK || !bytes.Equal(gwBody, directBody) {
		t.Errorf("gateway advise = %d %.300s, survivor %.300s", viaGW.StatusCode, gwBody, directBody)
	}
	if tag := viaGW.Header.Get(api.HeaderETag); tag == "" || tag != direct.Header.Get(api.HeaderETag) {
		t.Errorf("gateway advise ETag = %q, survivor %q", tag, direct.Header.Get(api.HeaderETag))
	}
}

// stubUpstream answers every request 200 with an empty list, except that
// hosts marked down refuse; it counts the attempts each host receives.
type stubUpstream struct {
	down map[string]bool
	hits map[string]int
}

func (s *stubUpstream) RoundTrip(r *http.Request) (*http.Response, error) {
	s.hits[r.URL.Host]++
	if s.down[r.URL.Host] {
		return nil, errors.New("connection refused")
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(strings.NewReader("[]")), Request: r}, nil
}

// The breaker ejects a node after failThreshold failures, orders it last
// for ejectFor, then lets exactly one trial through: a failed trial
// re-opens it and restarts the window, a successful one closes it, and
// breaker_opens_total counts closed-to-open transitions only.
func TestBreakerEjectsTrialsAndReadmits(t *testing.T) {
	const a, b = "a.invalid", "b.invalid"
	up := &stubUpstream{down: map[string]bool{}, hits: map[string]int{}}
	g, err := New(Config{Nodes: []string{"http://" + a, "http://" + b}, HTTPClient: &http.Client{Transport: up}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.EnableMetrics(reg)
	now := t0
	g.health.now = func() time.Time { return now }
	h := g.Handler()

	// Reads of a market node 1 owns try node 1 first while it is allowed.
	var m string
	for _, id := range market.New().SpotMarkets() {
		if g.ring.pick(id.String()) == 1 {
			m = id.String()
			break
		}
	}
	read := func() {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/prices?market="+url.QueryEscape(m), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("read answered %d: %s", rec.Code, rec.Body)
		}
	}
	state := func() string {
		s, _ := g.health.snapshot(1)
		return s
	}
	opens := func() uint64 {
		return reg.Counter("spotlight_gateway_breaker_opens_total", "", "node", "http://"+b).Value()
	}

	up.down[b] = true
	for i := 0; i < failThreshold; i++ {
		read()
	}
	if state() != breakerOpen || opens() != 1 || up.hits[b] != failThreshold {
		t.Fatalf("after %d failures: breaker %s, opens %v, hits %d", failThreshold, state(), opens(), up.hits[b])
	}

	// Ejected: ordered last, so reads inside the window never reach it.
	if c := g.candidates(1); len(c) != 2 || c[0] != 0 || c[1] != 1 {
		t.Fatalf("candidates with node 1 ejected = %v, want [0 1]", c)
	}
	for i := 0; i < 5; i++ {
		read()
	}
	if up.hits[b] != failThreshold {
		t.Fatalf("ejected node received %d attempts inside the window, want %d", up.hits[b], failThreshold)
	}

	// The window passes: one trial goes through, fails, and re-opens the
	// breaker without counting a second open.
	now = now.Add(ejectFor)
	if state() != breakerHalfOpen {
		t.Fatalf("breaker after the window = %s, want %s", state(), breakerHalfOpen)
	}
	for i := 0; i < 5; i++ {
		read()
	}
	if up.hits[b] != failThreshold+1 || state() != breakerOpen || opens() != 1 {
		t.Fatalf("after a failed trial: hits %d, breaker %s, opens %v", up.hits[b], state(), opens())
	}
	// The failed trial restarted the window.
	now = now.Add(ejectFor - time.Millisecond)
	if c := g.candidates(1); c[0] != 0 {
		t.Fatalf("candidates just before the restarted window ends = %v, want node 1 last", c)
	}

	// The node recovers: the next trial succeeds and closes the breaker.
	up.down[b] = false
	now = now.Add(time.Millisecond)
	read()
	if st, fails := g.health.snapshot(1); up.hits[b] != failThreshold+2 || st != breakerClosed || fails != 0 {
		t.Fatalf("after a successful trial: hits %d, breaker %s, fails %d", up.hits[b], st, fails)
	}

	// A fresh failure run is a second closed-to-open transition.
	up.down[b] = true
	for i := 0; i < failThreshold; i++ {
		read()
	}
	if opens() != 2 {
		t.Fatalf("breaker_opens_total = %v after two ejections, want 2", opens())
	}
}

// holdingNode serves every request by holding it open until its client
// goes away, counting the requests it saw.
func holdingNode(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	return srv, &hits
}

// A caller that gives up is not a node failure: reads and health polls
// that their callers cancel while a healthy but slow node holds them
// leave its breaker closed with no failure counted, however many there
// are (TestHealthEjectedNodeBreakerOpen holds that real failures still
// open it). A cut-short read counts as a cancelled upstream call, not as
// a failed one; a health poll is not an upstream call.
func TestCallerCancellationChargesNoBreaker(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		cancelled  uint64
	}{
		{"forward", "/v1/prices?market=" + url.QueryEscape("us-east-1d:c3.2xlarge:Linux/UNIX"), failThreshold},
		{"health", "/v2/health", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, hits := holdingNode(t)
			g, err := New(Config{Nodes: []string{node.URL}, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			g.EnableMetrics(reg)
			h := g.Handler()
			for i := 0; i < failThreshold; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, tc.path, nil).WithContext(ctx))
				cancel()
			}
			if hits.Load() < failThreshold {
				t.Fatalf("the node saw %d requests, want >= %d", hits.Load(), failThreshold)
			}
			if state, fails := g.health.snapshot(0); state != breakerClosed || fails != 0 {
				t.Errorf("after %d cancelled requests the node's breaker is %s with %d failures, want closed with 0", failThreshold, state, fails)
			}
			want := map[string]uint64{"cancelled": tc.cancelled}
			for _, name := range outcomeNames {
				got := reg.Counter("spotlight_gateway_upstream_requests_total", "", "node", node.URL, "outcome", name).Value()
				if got != want[name] {
					t.Errorf("outcome=%q counts %d upstream calls, want %d", name, got, want[name])
				}
			}
		})
	}
}

// Each way an upstream call can fail counts under its own outcome: a
// refused connection as transport, a 5xx as status, an attempt that
// outlives the gateway's timeout as timeout. A one-node fleet tries its
// node twice.
func TestUpstreamOutcomeSeries(t *testing.T) {
	fiveHundred := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(fiveHundred.Close)
	holding, _ := holdingNode(t)
	for _, tc := range []struct {
		outcome, node string
	}{
		{"transport", deadURL()},
		{"status", fiveHundred.URL},
		{"timeout", holding.URL},
	} {
		t.Run(tc.outcome, func(t *testing.T) {
			g, err := New(Config{Nodes: []string{tc.node}, Timeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			g.EnableMetrics(reg)
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/markets", nil))
			if rec.Code != http.StatusBadGateway {
				t.Errorf("status %d, want %d", rec.Code, http.StatusBadGateway)
			}
			for _, name := range outcomeNames {
				want := uint64(0)
				if name == tc.outcome {
					want = 2
				}
				got := reg.Counter("spotlight_gateway_upstream_requests_total", "", "node", tc.node, "outcome", name).Value()
				if got != want {
					t.Errorf("outcome=%q counts %d upstream calls, want %d", name, got, want)
				}
			}
		})
	}
}
