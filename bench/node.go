package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/client"
)

// node is one query-serving stack over a store: engine, HTTP API and (once
// served) a loopback listener.
type node struct {
	db  *store.Store
	cat *market.Catalog
	eng *query.Engine
	api *query.API
	now func() time.Time

	srv *http.Server
	url string
}

// newNode builds engine + API over db with the given clock and ETag salt.
// Every stack the benchmark builds over one store shares clock and salt, so
// their bodies and ETags are comparable byte for byte.
func newNode(db *store.Store, cat *market.Catalog, now func() time.Time, salt uint64, reg *obs.Registry) *node {
	eng := query.NewEngine(db, cat)
	a := query.NewAPI(eng, now)
	a.SetETagSalt(salt)
	a.EnableMetrics(reg)
	return &node{db: db, cat: cat, eng: eng, api: a, now: now}
}

// serve starts h on an ephemeral loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // best effort at teardown; the process exits next
}

// listen serves the node's handler, wrapped by wrap when non-nil.
func (n *node) listen(wrap func(http.Handler) http.Handler) error {
	h := n.api.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	var err error
	n.srv, n.url, err = serve(h)
	return err
}

func (n *node) close() {
	if n.srv != nil {
		n.api.Shutdown()
		shutdown(n.srv)
	}
}

// catalogMarkets is the 16-market set every read mix draws from: the first
// spot markets of the benchmark region in catalog order, the same ones
// spotload draws. The catalog is seedless, so the set is known before any
// dataset exists.
func catalogMarkets() ([]string, error) {
	infos, err := query.NewEngine(store.New(), market.New()).Markets(benchRegion, "")
	if err != nil {
		return nil, err
	}
	if len(infos) < 16 {
		return nil, fmt.Errorf("catalog has only %d markets in %s", len(infos), benchRegion)
	}
	out := make([]string, 16)
	for i := range out {
		out[i] = infos[i].Market.String()
	}
	return out, nil
}

// exchange is one HTTP round trip as the tap saw it.
type exchange struct {
	method  string
	url     string
	header  http.Header
	reqBody []byte
	status  int
	etag    string
	body    []byte
}

// tap wraps a client's transport. With a tracer it records a
// client.roundtrip span per call; with capture it keeps the last exchange
// (request as sent, response body as received). Reading the body inside the
// round trip makes the span cover "until the bytes are in memory".
type tap struct {
	base    http.RoundTripper
	tr      *tracer
	cur     *atomic.Int64
	capture bool
	last    exchange
}

func (t *tap) RoundTrip(r *http.Request) (*http.Response, error) {
	var id int
	if t.tr != nil {
		id = t.tr.begin("client.roundtrip", int(t.cur.Load()))
		defer t.tr.end(id)
	}
	if t.capture {
		t.last = exchange{method: r.Method, url: r.URL.RequestURI(), header: r.Header.Clone()}
		if r.GetBody != nil {
			if rc, err := r.GetBody(); err == nil {
				t.last.reqBody, _ = io.ReadAll(rc) // an in-memory reader
				rc.Close()
			}
		}
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if t.capture {
		t.last.status, t.last.etag, t.last.body = resp.StatusCode, resp.Header.Get("ETag"), body
	}
	return resp, nil
}

// spanHandler records a span around every request h serves.
func spanHandler(tr *tracer, cur *atomic.Int64, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin(name, int(cur.Load()))
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// oneConn is a transport that keeps exactly one keep-alive connection to
// its host: one per client goroutine.
func oneConn() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
}

// newCaller builds the SDK clients of one worker against base over rt: a
// oneConn transport, or a tap around one.
func newCaller(base string, rt http.RoundTripper) (caller, error) {
	hc := &http.Client{Transport: rt}
	c, err := client.New(base, hc)
	if err != nil {
		return caller{}, err
	}
	cond, err := client.New(base, hc)
	if err != nil {
		return caller{}, err
	}
	cond.EnableConditionalRequests()
	return caller{c: c, cond: cond}, nil
}
