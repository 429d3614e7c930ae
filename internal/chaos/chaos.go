// Package chaos is SpotLight's fault-injection toolkit: an
// http.RoundTripper that corrupts the request path (latency, connection
// resets, 5xx answers, truncated bodies, killed streams) and a TCP
// proxy that sits between two real listeners and misbehaves on the wire
// (added delay, blackholes, mid-flight connection kills).
//
// Both are deterministic-by-configuration and concurrency-safe, built
// for the failure-domain tests and the spotload drill: boot a
// real leader/follower/gateway fleet in-process, wrap the gateway's
// upstream transport in a Transport, splice a Proxy into the follower's
// replication path, and turn the dials mid-load. Nothing in this
// package is imported by production code paths — only the drill
// command and tests wire it.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Transport wraps an inner http.RoundTripper with configurable faults.
// The zero value (no faults) is a transparent pass-through. All knobs
// may be changed concurrently with in-flight requests.
type Transport struct {
	// Inner handles the real round trip (nil: http.DefaultTransport).
	Inner http.RoundTripper

	mu    sync.Mutex
	rng   *rand.Rand
	delay time.Duration // fixed extra latency per request
	jit   time.Duration // plus uniform random extra in [0, jit)
	reset float64       // probability of failing the request outright
	err5  float64       // probability of answering 500 without forwarding
	trunc float64       // probability of truncating the response body
	kills int64         // pending stream kills (consumed one per request)
}

// NewTransport wraps inner (nil: http.DefaultTransport) with the given
// seed driving every probabilistic choice.
func NewTransport(inner http.RoundTripper, seed int64) *Transport {
	return &Transport{Inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SetDelay adds fixed latency plus a uniform random extra in [0, jitter)
// to every request.
func (t *Transport) SetDelay(d, jitter time.Duration) {
	t.mu.Lock()
	t.delay, t.jit = d, jitter
	t.mu.Unlock()
}

// SetResetRate makes each request fail outright ("connection reset")
// with probability p — the transport-level error a killed TCP
// connection produces.
func (t *Transport) SetResetRate(p float64) {
	t.mu.Lock()
	t.reset = p
	t.mu.Unlock()
}

// SetServerErrorRate makes each request answer a synthetic 500 with
// probability p, without reaching the real server.
func (t *Transport) SetServerErrorRate(p float64) {
	t.mu.Lock()
	t.err5 = p
	t.mu.Unlock()
}

// SetTruncateRate makes each response body end early (half its bytes,
// then an unexpected EOF) with probability p.
func (t *Transport) SetTruncateRate(p float64) {
	t.mu.Lock()
	t.trunc = p
	t.mu.Unlock()
}

// KillStreams arms n one-shot stream kills: the next n responses get
// bodies that die with a connection-reset error after the first read —
// how an SSE stream breaks when its peer vanishes.
func (t *Transport) KillStreams(n int) {
	t.mu.Lock()
	t.kills += int64(n)
	t.mu.Unlock()
}

// errReset is the synthetic transport failure.
type errReset struct{ op string }

func (e errReset) Error() string { return "chaos: " + e.op + ": connection reset by peer" }

// Timeout and Temporary mark the fault retryable the way real resets
// are.
func (e errReset) Timeout() bool   { return false }
func (e errReset) Temporary() bool { return true }

// roll consumes randomness and fault budgets under the lock, returning
// this request's fate.
func (t *Transport) roll() (sleep time.Duration, reset, err5, trunc, kill bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(1))
	}
	sleep = t.delay
	if t.jit > 0 {
		sleep += time.Duration(t.rng.Int63n(int64(t.jit)))
	}
	p := t.rng.Float64()
	switch {
	case p < t.reset:
		reset = true
	case p < t.reset+t.err5:
		err5 = true
	case p < t.reset+t.err5+t.trunc:
		trunc = true
	}
	if t.kills > 0 {
		t.kills--
		kill = true
	}
	return
}

// RoundTrip applies the armed faults around the inner round trip.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	sleep, reset, err5, trunc, kill := t.roll()
	if sleep > 0 {
		select {
		case <-time.After(sleep):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if reset {
		return nil, errReset{op: req.Method + " " + req.URL.Path}
	}
	if err5 {
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Status:     "500 Internal Server Error (chaos)",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain"}},
			Body:    http.NoBody,
			Request: req,
		}, nil
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	resp, err := inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch {
	case kill:
		resp.Body = &killedBody{inner: resp.Body}
	case trunc:
		resp.Body = &truncatedBody{inner: resp.Body, budget: resp.ContentLength / 2}
	}
	return resp, nil
}

// killedBody lets one read through (so streaming consumers get going)
// and then dies with a reset.
type killedBody struct {
	inner io.ReadCloser
	reads int
}

func (b *killedBody) Read(p []byte) (int, error) {
	if b.reads > 0 {
		b.inner.Close()
		return 0, errReset{op: "read"}
	}
	b.reads++
	n, err := b.inner.Read(p)
	if err != nil {
		return n, err
	}
	return n, nil
}

func (b *killedBody) Close() error { return b.inner.Close() }

// truncatedBody serves only the first budget bytes, then reports an
// unexpected EOF (a cut-off download). A non-positive budget (unknown
// Content-Length) truncates after the first read.
type truncatedBody struct {
	inner  io.ReadCloser
	budget int64
	served int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.budget > 0 && b.served >= b.budget {
		b.inner.Close()
		return 0, io.ErrUnexpectedEOF
	}
	if b.budget > 0 && int64(len(p)) > b.budget-b.served {
		p = p[:b.budget-b.served]
	}
	n, err := b.inner.Read(p)
	b.served += int64(n)
	if err == nil && b.budget <= 0 && b.served > 0 {
		b.inner.Close()
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

// String renders the live fault configuration (for chaos reports).
func (t *Transport) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("delay=%v+%v reset=%.3f err5=%.3f trunc=%.3f kills=%d",
		t.delay, t.jit, t.reset, t.err5, t.trunc, t.kills)
}
