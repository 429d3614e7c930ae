// Package gateway is SpotLight's front door over a replica fleet: one
// HTTP endpoint spreading reads over N store nodes (a spotlightd leader
// and its followers), every one of which holds the full store.
//
// Each request is relayed whole, as bytes, to one node picked on a
// consistent-hash ring: /v1 GETs by market (per-market cache affinity)
// or, scope-less, by their full spec; /v2/query batches and /v2/advise
// by their body. The node's status, body and ETag reach the client
// untouched. A read that fails on one node (transport error or 5xx)
// fails over to the next, healthy nodes first; only when every node
// fails does the gateway answer 502 with code "upstream".
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
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
)

// Config wires one Gateway.
type Config struct {
	// Nodes are the upstream base URLs (at least one).
	Nodes []string
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

// Handler returns the routed HTTP handler: the aggregated health is
// gateway-native; everything else (/v1/*, /v2/query, /v2/advise,
// /v2/watch) is relayed to one routed node, upstream ETags passing
// through untouched.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(g.reg, route, h))
	}
	handle("POST /v2/query", "/v2/query", g.forwardPOST("batch"))
	handle("POST /v2/advise", "/v2/advise", g.forwardPOST("advise"))
	handle("GET /v2/health", "/v2/health", g.handleHealth)
	handle("GET /v2/watch", "/v2/watch", g.handleWatch)
	if g.reg != nil {
		mux.Handle("GET /metrics", g.reg.TextHandler())
		mux.Handle("GET /v2/metrics", g.reg.JSONHandler())
	}
	handle("/", "/v1/*", g.handleProxy)
	return mux
}

// forwardPOST serves an idempotent read POST (/v2/query, /v2/advise) by
// forwarding it whole, as bytes, to one node picked by hashing the route
// key and the body: a repeated question hits the same node's caches, the
// node's status, body and ETag reach the client untouched, and a dead
// node fails over to a healthy peer (the body is buffered, so re-sending
// it is safe). The node validates the envelope and isolates per-query
// errors itself.
func (g *Gateway) forwardPOST(key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxBatchBody))
		if err != nil {
			writeErr(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "read %s body: %v", key, err))
			return
		}
		g.forward(w, r, g.ring.pick(key+"|"+string(body)), body)
	}
}

// handleWatch proxies one live stream to a node: market-scoped streams
// go to the market's ring node, scope-less ones round-robin across the
// fleet. Any replica holds the full stream, so ejected nodes are skipped
// and a dead leader repoints watches to a live peer.
func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	var n int
	if m := r.URL.Query().Get("market"); m != "" {
		n = g.ring.pick(m)
	} else {
		n = int(g.rr.Add(1)) % len(g.proxies)
	}
	g.proxies[g.firstHealthy(n)].ServeHTTP(w, r)
}

// handleProxy routes the /v1/* surface through the failover forwarder,
// so a dead node costs a retry, not a 502. Market-scoped URLs hash the
// market and scope-less ones their full spec, keeping each node's
// per-market caches warm.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("market")
	if key == "" {
		key = r.URL.RequestURI()
	}
	g.forward(w, r, g.ring.pick(key), nil)
}

// handleHealth aggregates the fleet's health: every node is polled
// concurrently, the worst node status wins, and the per-node breakdown
// rides in the gateway arm. A failed poll charges the node's breaker only
// while the caller still waits: a client that drops the request is not a
// node failure.
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
				if r.Context().Err() == nil {
					g.health.fail(i)
				}
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
		Status:  "ok",
		Now:     now,
		Store:   api.HealthStore{Mode: "gateway", Healthy: true},
		Gateway: &api.HealthGateway{Nodes: nodes},
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
