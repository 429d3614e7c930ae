// Package client is the Go SDK for the SpotLight query service. It wraps
// both API surfaces — the GET /v1/* endpoints and the POST /v2/query
// batch envelope — behind typed methods over the pkg/api DTOs, so
// consumers never hand-roll URLs or decode anonymous JSON.
//
//	c, _ := client.New("http://localhost:8080", nil)
//	stable, err := c.Stable(ctx, "us-east-1", "Linux/UNIX", 10, api.Last(24*time.Hour))
//
// Several questions in one round trip go through the batch envelope:
//
//	resp, err := c.Batch(ctx,
//		api.Query{Kind: api.KindStable, Window: api.Last(24 * time.Hour)},
//		api.Query{Kind: api.KindSummary},
//	)
//
// Every service-side failure is returned as *api.Error, so callers can
// branch on the machine-readable code:
//
//	var aerr *api.Error
//	if errors.As(err, &aerr) && aerr.Code == api.CodeBadWindow { ... }
//
// The answers a control loop reads on every tick decode by hand
// (decode.go): what Prices, Summary, Stable, Volatile, Fallback,
// Unavailability and Advise return, and a Batch whose results carry
// those kinds' or advise's arms. Any other type (health, promote,
// markets, outages, predict, reserved-value, the error envelope), and
// any body outside the compact form the service writes, goes to
// encoding/json. Either way the result, and every decode error, is
// exactly encoding/json's.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"spotlight/pkg/api"
)

// Client talks to one SpotLight service instance. It is safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client

	// Conditional-request state (see EnableConditionalRequests): per-query
	// remembered ETag + response body, and a counter of 304s served from
	// it.
	mu          sync.Mutex
	revalidate  bool
	cached      map[string]cachedResponse
	notModified uint64
}

// cachedResponse is one remembered 200 response: the service's ETag and
// the raw body to replay when the service answers 304.
type cachedResponse struct {
	etag string
	body []byte
}

// New builds a client for the service at baseURL (scheme + host[:port],
// with or without a trailing slash). hc defaults to http.DefaultClient.
func New(baseURL string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: bad base URL %q", baseURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}, nil
}

// EnableConditionalRequests turns on transparent HTTP revalidation: the
// client remembers each query's ETag and body, replays the tag in
// If-None-Match, and decodes the remembered body when the service answers
// 304 Not Modified. Polling an unchanged dashboard then costs the service
// a generation check instead of a recomputation, and the wire an empty
// response instead of a payload. Entries are keyed by the full request
// (URL, and body for batches); the map grows with distinct queries, so
// enable it for clients that poll a bounded query set.
func (c *Client) EnableConditionalRequests() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.revalidate = true
	if c.cached == nil {
		c.cached = make(map[string]cachedResponse)
	}
}

// NotModifiedCount reports how many responses were served from the
// conditional cache after a 304 — observability for tests and polling
// loops.
func (c *Client) NotModifiedCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.notModified
}

// lookupCached returns the remembered response for key, if revalidation
// is on and one exists.
func (c *Client) lookupCached(key string) (cachedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.revalidate {
		return cachedResponse{}, false
	}
	e, ok := c.cached[key]
	return e, ok
}

// storeCached remembers a 200 response for key.
func (c *Client) storeCached(key, etag string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.revalidate {
		return
	}
	c.cached[key] = cachedResponse{etag: etag, body: body}
}

// Batch evaluates up to api.MaxBatchQueries heterogeneous queries in one
// POST /v2/query round trip. The envelope-level error (malformed batch,
// over the limit) comes back as the method's error; per-query failures
// live in the corresponding Result.Error and do not fail the batch.
func (c *Client) Batch(ctx context.Context, queries ...api.Query) (*api.BatchResponse, error) {
	body, err := json.Marshal(api.BatchRequest{Queries: queries})
	if err != nil {
		return nil, fmt.Errorf("client: encode batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp api.BatchResponse
	// Conditional key: the batch body identifies the query set. On a 304
	// the remembered response replays, including its earlier Now echo —
	// the service guarantees the results are unchanged, not the clock.
	if _, err := c.do(req, "POST /v2/query "+string(body), &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(queries) {
		return nil, fmt.Errorf("client: batch returned %d results for %d queries", len(resp.Results), len(queries))
	}
	return &resp, nil
}

// Promote asks a follower to take over as leader (POST
// /v2/admin/promote): its replication subscription drains and stops and
// the node starts accepting writes with the failed leader's ETag salt,
// clock timeline, and generations. force skips the split-brain guard
// that refuses promotion while the old leader still streams. Refusals
// come back as *api.Error.
func (c *Client) Promote(ctx context.Context, force bool) (*api.PromoteResponse, error) {
	u := c.base + "/v2/admin/promote"
	if force {
		u += "?force=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	var out api.PromoteResponse
	if _, err := c.do(req, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Advise asks the decision layer for ranked market recommendations: up
// to req.N markets satisfying the constraints, scored over the request
// window (the trailing 24h when the window is zero). An empty candidate
// list is a valid answer; constraint violations (unknown region,
// out-of-range ceilings) come back as *api.Error with code bad_param.
// The same question can ride a Batch as a Query{Kind: api.KindAdvise,
// Advise: &req.AdviseConstraints, Window: req.Window} spec.
func (c *Client) Advise(ctx context.Context, areq api.AdviseRequest) (*api.AdviseResponse, error) {
	body, err := json.Marshal(areq)
	if err != nil {
		return nil, fmt.Errorf("client: encode advise: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/advise", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp api.AdviseResponse
	if _, err := c.do(req, "POST /v2/advise "+string(body), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Unavailability returns the fraction of the window one market's contract
// tier ("od" or "spot"; "" means od) was detected unavailable.
func (c *Client) Unavailability(ctx context.Context, market, contract string, w api.Window) (*api.Unavailability, error) {
	v := windowValues(w)
	v.Set("market", market)
	if contract != "" {
		v.Set("kind", contract)
	}
	var out api.Unavailability
	if err := c.get(ctx, "/v1/unavailability", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stable returns the n most stable spot markets of a region/product scope
// ("" leaves the dimension unfiltered; n <= 0 uses the service default).
func (c *Client) Stable(ctx context.Context, region, product string, n int, w api.Window) ([]api.StableMarket, error) {
	v := scopeValues(w, region, product, n)
	var out []api.StableMarket
	if err := c.get(ctx, "/v1/stable", v, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Volatile returns the n most volatile spot markets of a scope.
func (c *Client) Volatile(ctx context.Context, region, product string, n int, w api.Window) ([]api.VolatileMarket, error) {
	v := scopeValues(w, region, product, n)
	var out []api.VolatileMarket
	if err := c.get(ctx, "/v1/volatile", v, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Fallback returns up to n uncorrelated fail-over markets for market.
func (c *Client) Fallback(ctx context.Context, market string, n int, w api.Window) ([]api.Fallback, error) {
	v := windowValues(w)
	v.Set("market", market)
	if n > 0 {
		v.Set("n", strconv.Itoa(n))
	}
	var out []api.Fallback
	if err := c.get(ctx, "/v1/fallback", v, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Prices returns one market's recorded price series inside the window.
func (c *Client) Prices(ctx context.Context, market string, w api.Window) ([]api.PricePoint, error) {
	v := windowValues(w)
	v.Set("market", market)
	var out []api.PricePoint
	if err := c.get(ctx, "/v1/prices", v, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Outages returns one market's detected outages overlapping the window.
func (c *Client) Outages(ctx context.Context, market string, w api.Window) ([]api.Outage, error) {
	v := windowValues(w)
	v.Set("market", market)
	var out []api.Outage
	if err := c.get(ctx, "/v1/outages", v, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Predict estimates the probability of an on-demand outage within horizon
// of a spike of the given multiple (horizon 0 uses the service default).
func (c *Client) Predict(ctx context.Context, market string, ratio float64, horizon time.Duration, w api.Window) (*api.Prediction, error) {
	v := windowValues(w)
	v.Set("market", market)
	v.Set("ratio", strconv.FormatFloat(ratio, 'g', -1, 64))
	if horizon > 0 {
		v.Set("horizon", horizon.String())
	}
	var out api.Prediction
	if err := c.get(ctx, "/v1/predict", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReservedValue assesses reserving market at the planned duty cycle.
func (c *Client) ReservedValue(ctx context.Context, market string, utilization float64, w api.Window) (*api.ReservedValue, error) {
	v := windowValues(w)
	v.Set("market", market)
	v.Set("utilization", strconv.FormatFloat(utilization, 'g', -1, 64))
	var out api.ReservedValue
	if err := c.get(ctx, "/v1/reserved-value", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Markets lists the catalog's spot markets, optionally scoped.
func (c *Client) Markets(ctx context.Context, region, product string) ([]api.MarketInfo, error) {
	v := url.Values{}
	if region != "" {
		v.Set("region", region)
	}
	if product != "" {
		v.Set("product", product)
	}
	var out []api.MarketInfo
	if err := c.get(ctx, "/v1/markets", v, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Summary returns the per-region availability aggregates at the service
// clock.
func (c *Client) Summary(ctx context.Context) ([]api.RegionSummary, error) {
	var out []api.RegionSummary
	if err := c.get(ctx, "/v1/summary", url.Values{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health returns the service's /v2/health payload: store mode and
// durability state, watch-stream counters, the service clock, and — on
// followers and gateways — replication or per-upstream detail.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var out api.Health
	if err := c.get(ctx, "/v2/health", url.Values{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// windowValues encodes a window spec as URL parameters.
func windowValues(w api.Window) url.Values {
	v := url.Values{}
	if w.Rel != "" {
		v.Set("window", w.Rel)
		return v
	}
	if !w.From.IsZero() {
		v.Set("from", w.From.Format(time.RFC3339))
	}
	if !w.To.IsZero() {
		v.Set("to", w.To.Format(time.RFC3339))
	}
	return v
}

// scopeValues encodes the parameters of the ranked, scope-filtered kinds.
func scopeValues(w api.Window, region, product string, n int) url.Values {
	v := windowValues(w)
	if region != "" {
		v.Set("region", region)
	}
	if product != "" {
		v.Set("product", product)
	}
	if n > 0 {
		v.Set("n", strconv.Itoa(n))
	}
	return v
}

// get issues a GET for path with params and decodes the payload into out.
func (c *Client) get(ctx context.Context, path string, params url.Values, out any) error {
	u := c.base + path
	if enc := params.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	_, err = c.do(req, "GET "+u, out)
	return err
}

// do executes the request, decoding either the payload or the service's
// error envelope (returned as *api.Error), and reports the response's
// ETag ("" when absent). key identifies the request in the conditional
// cache ("" skips caching); when a remembered ETag revalidates (304),
// the remembered body decodes instead and the held tag is returned.
func (c *Client) do(req *http.Request, key string, out any) (string, error) {
	var (
		prior cachedResponse
		held  bool
	)
	if key != "" {
		prior, held = c.lookupCached(key)
	}
	if held {
		req.Header.Set(api.HeaderIfNoneMatch, prior.etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		if !held {
			return "", fmt.Errorf("client: %s %s: unexpected 304 without a held ETag", req.Method, req.URL.Path)
		}
		c.mu.Lock()
		c.notModified++
		c.mu.Unlock()
		return prior.etag, decodeBody(prior.body, req.URL.Path, out)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: read %s response: %w", req.URL.Path, err)
	}
	if resp.StatusCode/100 != 2 {
		var aerr api.Error
		if err := json.Unmarshal(body, &aerr); err != nil || aerr.Code == "" {
			return "", fmt.Errorf("client: %s %s: HTTP %d", req.Method, req.URL.Path, resp.StatusCode)
		}
		return "", &aerr
	}
	etag := resp.Header.Get(api.HeaderETag)
	if etag != "" && key != "" {
		c.storeCached(key, etag, body)
	}
	return etag, decodeBody(body, req.URL.Path, out)
}

// decodeBody unmarshals a response body into out (nil out skips),
// through decodeFast when it takes the body.
func decodeBody(body []byte, path string, out any) error {
	if out == nil || decodeFast(body, out) {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}
