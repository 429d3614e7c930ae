// Per-upstream health: circuit breakers and the one failover loop every
// idempotent call runs through.
//
// A store node that is slow, dead, or resetting connections must cost
// the fleet one degraded answer, not a hard 502 for everything routed its
// way. forward below calls failover, which tries the candidates in order
// and records per-node outcomes in the tracker; a node that fails
// failThreshold calls in a row is ejected (breaker opens) and ordered
// behind its peers until a successful call re-admits it — a lazy
// half-open trial once ejectFor has passed, or a /v2/health poll.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"spotlight/pkg/api"
)

// Breaker constants.
const (
	// failThreshold is how many consecutive call failures eject a node.
	failThreshold = 3
	// ejectFor is how long an ejected node sits out before a trial call
	// may probe it again.
	ejectFor = 5 * time.Second
)

// Breaker states, reported in NodeHealth.Breaker.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// nodeState is one upstream's breaker.
type nodeState struct {
	mu       sync.Mutex
	fails    int       // consecutive failures
	open     bool      // ejected
	openedAt time.Time // when the breaker last opened
}

// tracker holds the per-node breakers.
type tracker struct {
	nodes []nodeState
	// now is the breaker clock (time.Now; tests substitute their own).
	now func() time.Time
	// onOpen, when set (EnableMetrics), observes each closed-to-open
	// transition; called with the node's lock held, so it must not call
	// back into the tracker.
	onOpen func(node int)
}

func newTracker(n int) *tracker {
	return &tracker{nodes: make([]nodeState, n), now: time.Now}
}

// allow reports whether node i should receive traffic: breaker closed,
// or open long enough that a half-open trial is due.
func (t *tracker) allow(i int) bool {
	s := &t.nodes[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.open || t.now().Sub(s.openedAt) >= ejectFor
}

// succeed records a successful call: the breaker closes and the failure
// run resets.
func (t *tracker) succeed(i int) {
	s := &t.nodes[i]
	s.mu.Lock()
	s.fails = 0
	s.open = false
	s.mu.Unlock()
}

// fail records a failed call: at threshold the breaker opens (or
// re-opens, restarting the cooldown after a failed half-open trial).
func (t *tracker) fail(i int) {
	s := &t.nodes[i]
	s.mu.Lock()
	s.fails++
	if s.fails >= failThreshold || s.open {
		if !s.open && t.onOpen != nil {
			t.onOpen(i)
		}
		s.open = true
		s.openedAt = t.now()
	}
	s.mu.Unlock()
}

// snapshot reports node i's breaker for /v2/health.
func (t *tracker) snapshot(i int) (state string, fails int) {
	s := &t.nodes[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.open:
		state = breakerClosed
	case t.now().Sub(s.openedAt) >= ejectFor:
		state = breakerHalfOpen
	default:
		state = breakerOpen
	}
	return state, s.fails
}

// candidates builds the attempt order for one idempotent call whose
// affinity choice is primary. Any replica can answer, so every distinct
// node is tried once, in index order from primary with healthy nodes
// first (ejected nodes stay at the tail as a last resort — a fully
// ejected fleet still gets tried rather than failing without a single
// wire attempt). A single-node fleet re-tries its one node once.
func (g *Gateway) candidates(primary int) []int {
	if len(g.clients) == 1 {
		return []int{primary, primary}
	}
	out := make([]int, 0, len(g.clients))
	var ejected []int
	for k := range g.clients {
		n := (primary + k) % len(g.clients)
		if g.health.allow(n) {
			out = append(out, n)
		} else {
			ejected = append(ejected, n)
		}
	}
	return append(out, ejected...)
}

// firstHealthy returns primary unless its breaker is open, in which case
// the next non-ejected node in rotation (or primary again when the whole
// fleet is ejected).
func (g *Gateway) firstHealthy(primary int) int {
	for k := 0; k < len(g.clients); k++ {
		n := (primary + k) % len(g.clients)
		if g.health.allow(n) {
			return n
		}
	}
	return primary
}

// failover runs one idempotent call against the candidates in order and
// stops at the first node that answers; try reports node n's outcome.
// Each attempt's latency and outcome feed the node's upstream series and
// its breaker, and every attempt after the first counts as a retry. Once
// ctx is done no further attempt starts, and the attempt it cut short
// counts as cancelled and charges no breaker: a caller that gave up must
// not charge healthy nodes with its cancellation.
func (g *Gateway) failover(ctx context.Context, primary int, try func(n int) outcome) bool {
	for k, n := range g.candidates(primary) {
		if k > 0 {
			if ctx.Err() != nil {
				return false
			}
			g.metrics.retries.Inc()
		}
		start := time.Now()
		o := try(n)
		if o != outcomeOK && ctx.Err() != nil {
			o = outcomeCancelled
		}
		g.metrics.observeUpstream(n, time.Since(start), o)
		switch o {
		case outcomeOK:
			g.health.succeed(n)
			return true
		case outcomeCancelled:
			return false
		}
		g.health.fail(n)
	}
	return false
}

// forward relays one idempotent HTTP request (a /v1 GET, or a batch or
// advise POST whose body the caller buffered) through failover, copying
// the first usable answer — status, headers (ETags included), body —
// back to the client. A transport error or 5xx moves on to the next
// candidate; a 2xx/3xx/4xx is the node's real answer and relays as-is.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, primary int, body []byte) {
	var lastErr error
	var lastNode string
	if g.failover(r.Context(), primary, func(n int) outcome {
		ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
		defer cancel()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, r.Method, g.cfg.Nodes[n]+r.URL.RequestURI(), rd)
		if err != nil {
			lastErr, lastNode = err, g.cfg.Nodes[n]
			return outcomeTransport
		}
		copyHeader(req.Header, r.Header)
		resp, err := g.httpClient().Do(req)
		if err != nil {
			lastErr, lastNode = err, g.cfg.Nodes[n]
			if ctx.Err() == context.DeadlineExceeded {
				return outcomeTimeout
			}
			return outcomeTransport
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			lastErr, lastNode = errors.New(resp.Status), g.cfg.Nodes[n]
			return outcomeStatus
		}
		copyHeader(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return outcomeOK
	}) {
		return
	}
	writeErr(w, http.StatusBadGateway,
		api.Errorf(api.CodeUpstream, "upstream unreachable: %v", lastErr).WithDetail("node", lastNode))
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

func (g *Gateway) httpClient() *http.Client {
	if g.cfg.HTTPClient != nil {
		return g.cfg.HTTPClient
	}
	return http.DefaultClient
}

// Close is a no-op: the gateway starts no goroutine of its own, and its
// upstream transport belongs to the caller.
func (g *Gateway) Close() {}
