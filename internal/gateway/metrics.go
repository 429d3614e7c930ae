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

	upstreamSeconds  []*obs.Histogram
	upstreamRequests [][numOutcomes]*obs.Counter
	breakerOpens     []*obs.Counter
}

// outcome classifies one upstream attempt, the outcome label of
// spotlight_gateway_upstream_requests_total: ok (the node answered below
// 500, even with a query-level error), transport (no answer: the request
// could not be built, sent or read), status (5xx), timeout (the attempt
// outlived Config.Timeout) or cancelled (the caller gave up; no breaker
// is charged).
type outcome int

const (
	outcomeOK outcome = iota
	outcomeTransport
	outcomeStatus
	outcomeTimeout
	outcomeCancelled
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "transport", "status", "timeout", "cancelled"}

func newGwMetrics(n int) *gwMetrics {
	return &gwMetrics{
		upstreamSeconds:  make([]*obs.Histogram, n),
		upstreamRequests: make([][numOutcomes]*obs.Counter, n),
		breakerOpens:     make([]*obs.Counter, n),
	}
}

// observeUpstream records one upstream attempt against node n.
func (m *gwMetrics) observeUpstream(n int, d time.Duration, o outcome) {
	m.upstreamSeconds[n].Observe(d)
	m.upstreamRequests[n][o].Inc()
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
		for o, name := range outcomeNames {
			m.upstreamRequests[i][o] = reg.Counter("spotlight_gateway_upstream_requests_total",
				"Upstream calls by node and outcome: ok (the node answered, even with a query-level error), transport, status (5xx), timeout or cancelled (the caller gave up).",
				"node", node, "outcome", name)
		}
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
