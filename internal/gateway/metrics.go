// Gateway observability: per-upstream latency and outcome series,
// the retry counter, and breaker state.
//
// The per-node children are resolved once at EnableMetrics into plain
// slices indexed by node — the hot path (failover's candidate loop) then
// touches an atomic, never the registry's lock. A gateway whose metrics
// were never enabled carries nil pointers in those slices, and every obs
// method no-ops on nil, so the uninstrumented cost is one nil check per
// call.
package gateway

import (
	"time"

	"spotlight/internal/obs"
)

// gwMetrics holds the gateway's hot-path instruments, indexed by node
// where labeled. Allocated (with sized slices) in New; armed by
// EnableMetrics.
type gwMetrics struct {
	retries *obs.Counter

	upstreamSeconds []*obs.Histogram
	upstreamOK      []*obs.Counter
	upstreamErr     []*obs.Counter
	breakerOpens    []*obs.Counter
}

func newGwMetrics(n int) *gwMetrics {
	return &gwMetrics{
		upstreamSeconds: make([]*obs.Histogram, n),
		upstreamOK:      make([]*obs.Counter, n),
		upstreamErr:     make([]*obs.Counter, n),
		breakerOpens:    make([]*obs.Counter, n),
	}
}

// observeUpstream records one upstream attempt against node n.
func (m *gwMetrics) observeUpstream(n int, d time.Duration, ok bool) {
	m.upstreamSeconds[n].Observe(d)
	if ok {
		m.upstreamOK[n].Inc()
	} else {
		m.upstreamErr[n].Inc()
	}
}

// EnableMetrics registers the gateway's series in reg and arms the
// hot-path instruments. Call before Handler(): the registry also serves
// GET /metrics and GET /v2/metrics there, and every route picks up the
// shared HTTP middleware. A nil registry leaves the gateway
// uninstrumented.
func (g *Gateway) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	g.reg = reg
	m := g.metrics
	m.retries = reg.Counter("spotlight_gateway_retries_total",
		"Upstream attempts launched because a previous candidate failed.")
	for i, node := range g.cfg.Nodes {
		m.upstreamSeconds[i] = reg.Histogram("spotlight_gateway_upstream_seconds",
			"Latency of one upstream call, per node.", "node", node)
		m.upstreamOK[i] = reg.Counter("spotlight_gateway_upstream_requests_total",
			"Upstream calls by node and outcome (ok: the node answered, even with a query-level error).",
			"node", node, "outcome", "ok")
		m.upstreamErr[i] = reg.Counter("spotlight_gateway_upstream_requests_total",
			"Upstream calls by node and outcome (ok: the node answered, even with a query-level error).",
			"node", node, "outcome", "error")
		m.breakerOpens[i] = reg.Counter("spotlight_gateway_breaker_opens_total",
			"Closed-to-open breaker transitions, per node.", "node", node)
		i := i
		reg.GaugeFunc("spotlight_gateway_breaker_state",
			"Breaker state per node: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				switch state, _ := g.health.snapshot(i); state {
				case breakerHalfOpen:
					return 1
				case breakerOpen:
					return 2
				}
				return 0
			}, "node", node)
	}
	// Count closed-to-open transitions at the tracker, where the
	// transition is decided under the node's lock (fail() may race with
	// itself across goroutines).
	g.health.onOpen = func(i int) { m.breakerOpens[i].Inc() }
}
