package query

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

func testServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	db := store.New()
	api := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv, db
}

func get(t *testing.T, srv *httptest.Server, path string, q url.Values) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path + "?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func window() url.Values {
	return url.Values{
		"from": {t0.Format(time.RFC3339)},
		"to":   {t0.Add(24 * time.Hour).Format(time.RFC3339)},
	}
}

func TestHTTPUnavailability(t *testing.T) {
	srv, db := testServer(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))

	q := window()
	q.Set("market", mktA.String())
	resp, body := get(t, srv, "/v1/unavailability", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if got := out["unavailability"].(float64); got != 0.25 {
		t.Errorf("unavailability = %v, want 0.25", got)
	}
	if got := out["availability"].(float64); got != 0.75 {
		t.Errorf("availability = %v, want 0.75", got)
	}
}

func TestHTTPUnavailabilitySpotKind(t *testing.T) {
	srv, db := testServer(t)
	addOutage(db, mktA, store.ProbeSpot, t0, t0.Add(12*time.Hour))
	q := window()
	q.Set("market", mktA.String())
	q.Set("kind", "spot")
	resp, body := get(t, srv, "/v1/unavailability", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if got := out["unavailability"].(float64); got != 0.5 {
		t.Errorf("spot unavailability = %v, want 0.5", got)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	tests := []struct {
		path string
		q    url.Values
		code string
	}{
		{"/v1/unavailability", url.Values{}, api.CodeBadMarket},                          // no market
		{"/v1/unavailability", url.Values{"market": {mktA.String()}}, api.CodeBadWindow}, // no window
		{"/v1/unavailability", func() url.Values { q := window(); q.Set("market", mktA.String()); q.Set("kind", "weird"); return q }(), api.CodeBadParam},
		{"/v1/fallback", window(), api.CodeBadMarket}, // no market
		{"/v1/prices", window(), api.CodeBadMarket},   // no market
		{"/v1/stable", url.Values{"from": {"garbage"}, "to": {"garbage"}}, api.CodeBadWindow},
		{"/v1/stable", url.Values{"window": {"later"}}, api.CodeBadWindow},
		{"/v1/stable", func() url.Values { q := window(); q.Set("n", "abc"); return q }(), api.CodeBadParam},
		{"/v1/stable", func() url.Values { q := window(); q.Set("n", "0"); return q }(), api.CodeBadParam},
		{"/v1/stable", func() url.Values { q := window(); q.Set("n", "-2"); return q }(), api.CodeBadParam},
		{"/v1/predict", func() url.Values { q := window(); q.Set("market", mktA.String()); return q }(), api.CodeBadParam}, // no ratio
		{"/v1/reserved-value", func() url.Values { q := window(); q.Set("market", mktA.String()); return q }(), api.CodeBadParam},
		// Non-finite floats parse, but JSON cannot carry them back.
		{"/v1/predict", url.Values{"market": {mktA.String()}, "window": {"24h"}, "ratio": {"NaN"}}, api.CodeBadParam},
		{"/v1/predict", url.Values{"market": {mktA.String()}, "window": {"24h"}, "ratio": {"+Inf"}}, api.CodeBadParam},
		{"/v1/reserved-value", url.Values{"market": {mktA.String()}, "window": {"24h"}, "utilization": {"NaN"}}, api.CodeBadParam},
	}
	for _, tt := range tests {
		resp, body := get(t, srv, tt.path, tt.q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s?%s status = %d, want 400", tt.path, tt.q.Encode(), resp.StatusCode)
			continue
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s?%s: error body is not an envelope: %v (%s)", tt.path, tt.q.Encode(), err, body)
			continue
		}
		if e.Code != tt.code || e.Message == "" {
			t.Errorf("%s?%s error = %+v, want code %s", tt.path, tt.q.Encode(), e, tt.code)
		}
	}
}

// TestHTTPV1RelativeWindow: the v1 adapters accept window=24h resolved
// against the service clock, equivalent to from/to.
func TestHTTPV1RelativeWindow(t *testing.T) {
	srv, db := testServer(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	q := url.Values{"market": {mktA.String()}, "window": {"24h"}}
	resp, body := get(t, srv, "/v1/unavailability", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	var out api.Unavailability
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Unavailability != 0.25 {
		t.Errorf("relative-window unavailability = %v, want 0.25", out.Unavailability)
	}
}

func TestHTTPStable(t *testing.T) {
	srv, db := testServer(t)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	q := window()
	q.Set("region", "us-east-1")
	q.Set("n", "3")
	resp, body := get(t, srv, "/v1/stable", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	var rows []StableMarket
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("rows = %d, want 3", len(rows))
	}
}

func TestHTTPFallback(t *testing.T) {
	srv, _ := testServer(t)
	q := window()
	q.Set("market", mktA.String())
	q.Set("n", "4")
	resp, body := get(t, srv, "/v1/fallback", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	var rows []Fallback
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row.Market.Type.Family() == "c3" {
			t.Errorf("fallback %v shares the trigger family", row.Market)
		}
	}
}

func TestHTTPPricesAndSummary(t *testing.T) {
	srv, db := testServer(t)
	db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Hour), Price: 0.42})
	db.AppendProbe(store.ProbeRecord{At: t0, Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})

	q := window()
	q.Set("market", mktA.String())
	resp, body := get(t, srv, "/v1/prices", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prices status = %d", resp.StatusCode)
	}
	var pts []store.PricePoint
	if err := json.Unmarshal(body, &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Price != 0.42 {
		t.Errorf("prices = %+v", pts)
	}

	resp, body = get(t, srv, "/v1/summary", url.Values{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary status = %d", resp.StatusCode)
	}
	var sums []RegionSummary
	if err := json.Unmarshal(body, &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Region != "us-east-1" {
		t.Errorf("summary = %+v", sums)
	}
}

// v1Routes is every GET /v1/* route Handler serves.
var v1Routes = []string{
	"/v1/unavailability", "/v1/stable", "/v1/volatile", "/v1/fallback", "/v1/prices",
	"/v1/outages", "/v1/predict", "/v1/reserved-value", "/v1/markets", "/v1/summary",
}

// FuzzV1Query sends arbitrary raw query strings to every /v1 route over a
// small store. The URL is the untrusted surface: whatever it says, the
// answer is a 200 with an ETag and a JSON body, or a 400 with the error
// envelope — never a panic, a 5xx, or a 200 whose body failed to encode.
// A 200 unavailability is a fraction in [0, 1], and exactly the share of
// its window the market's outages cover (windowShare); a 200 prediction is
// a probability in [0, 1] over a count of spikes. The store holds spikes
// above and below the default ratio, inside an on-demand outage and
// outside one, so predictions have hits.
func FuzzV1Query(f *testing.F) {
	mkt := url.QueryEscape(mktA.String())
	f.Add(uint8(6), "market="+mkt+"&window=24h&ratio=NaN")
	f.Add(uint8(6), "market="+mkt+"&window=24h&ratio=%2BInf")
	f.Add(uint8(7), "market="+mkt+"&window=24h&utilization=NaN")
	f.Add(uint8(0), "market="+mkt+"&kind=spot&from=2015-09-01T00:00:00Z&to=2015-09-02T00:00:00Z")
	f.Add(uint8(1), "region=us-east-1&n=3&window=24h")
	f.Add(uint8(2), "product=Linux%2FUNIX&n=2&window=6h")
	f.Add(uint8(3), "market="+mkt+"&n=5&window=48h")
	f.Add(uint8(5), "market="+mkt+"&window=-24h")
	f.Add(uint8(6), "market="+mkt+"&window=24h&ratio=1.5&horizon=15m")
	f.Add(uint8(6), "market="+mkt+"&window=24h&ratio=0.8&horizon=2h")
	f.Add(uint8(7), "market="+mkt+"&window=24h&utilization=0.5")
	f.Add(uint8(8), "region=us-east-1")
	f.Add(uint8(9), "")
	// Ends past what UnixNano holds, 584 years apart: a 400, not a share
	// of a saturated window.
	f.Add(uint8(0), "market="+url.QueryEscape(mktB.String())+"&kind=spot&from=1723-05-23T00:00:00Z&to=2307-12-11T00:00:00Z")

	db := store.New()
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	addOutage(db, mktB, store.ProbeSpot, t0.Add(2*time.Hour), time.Time{})
	for i, p := range []float64{0.1, 0.3, 0.2} {
		db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Duration(i) * time.Hour), Price: p})
		db.RecordPrice(mktB, store.PricePoint{At: t0.Add(time.Duration(i) * time.Hour), Price: 2 * p})
	}
	for i, ratio := range []float64{2, 0.5, 3, 1.2, 0.9} { // mktA's on-demand outage holds the first two
		db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Duration(1+4*i) * time.Hour), Market: mktA, Ratio: ratio})
		db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Duration(2+4*i) * time.Hour), Market: mktB, Ratio: ratio})
	}
	now := t0.Add(24 * time.Hour)
	h := NewAPI(NewEngine(db, market.New()), func() time.Time { return now }).Handler()

	f.Fuzz(func(t *testing.T, route uint8, raw string) {
		path := v1Routes[int(route)%len(v1Routes)]
		r := httptest.NewRequest(http.MethodGet, path, nil)
		r.URL.RawQuery = raw
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		body := w.Body.Bytes()
		switch w.Code {
		case http.StatusOK:
			if w.Header().Get(api.HeaderETag) == "" || len(body) == 0 || !json.Valid(body) {
				t.Fatalf("%s?%s: 200 with ETag %q and body %q", r.URL.Path, raw, w.Header().Get(api.HeaderETag), body)
			}
			if path == "/v1/unavailability" {
				var u api.Unavailability
				if err := json.Unmarshal(body, &u); err != nil {
					t.Fatal(err)
				}
				q, _ := queryFromURL(r, api.KindUnavailability)
				from, to, _ := q.Window.Resolve(now)
				want := windowShare(t, db, u, from, to)
				if !(u.Unavailability >= 0 && u.Unavailability <= 1) || math.Abs(u.Unavailability-want) > 1e-9 {
					t.Fatalf("%s?%s: unavailability %v over [%v, %v], want %v", r.URL.Path, raw, u.Unavailability, from, to, want)
				}
			}
			if path == "/v1/predict" {
				var p api.Prediction
				if err := json.Unmarshal(body, &p); err != nil {
					t.Fatal(err)
				}
				if !(p.Probability >= 0 && p.Probability <= 1) || p.Samples < 0 {
					t.Fatalf("%s?%s: probability %v over %d samples", r.URL.Path, raw, p.Probability, p.Samples)
				}
			}
		case http.StatusBadRequest:
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil || e.Code == "" {
				t.Fatalf("%s?%s: 400 body %q is not an error envelope (%v)", r.URL.Path, raw, body, err)
			}
		default:
			t.Fatalf("%s?%s: status %d, body %q", r.URL.Path, raw, w.Code, body)
		}
	})
}

// windowShare is the share of [from, to] that u's market's outages of u's
// kind cover, an open one up to to, in float seconds: no Duration to
// saturate, whatever the window.
func windowShare(t *testing.T, db *store.Store, u api.Unavailability, from, to time.Time) float64 {
	id, err := market.ParseSpotID(u.Market)
	if err != nil {
		t.Fatal(err)
	}
	kind := store.ProbeOnDemand
	if u.Contract == "spot" {
		kind = store.ProbeSpot
	}
	seconds := func(a, b time.Time) float64 {
		return float64(b.Unix()-a.Unix()) + float64(b.Nanosecond()-a.Nanosecond())/1e9
	}
	covered := 0.0
	for _, o := range db.OutagesFor(id, kind) {
		start, end := o.Start, o.End
		if end.IsZero() || end.After(to) {
			end = to
		}
		if start.Before(from) {
			start = from
		}
		if end.After(start) {
			covered += seconds(start, end)
		}
	}
	return covered / seconds(from, to)
}
