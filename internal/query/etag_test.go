package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// getWithETag issues a GET with an optional If-None-Match header.
func getWithETag(t *testing.T, srv *httptest.Server, path string, q url.Values, etag string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path+"?"+q.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set(api.HeaderIfNoneMatch, etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestConditionalV1 drives every cacheable v1 endpoint through the
// conditional-request contract: a 200 carries an ETag, replaying it
// yields 304, out-of-scope appends keep it valid, and an in-scope append
// rotates the tag.
func TestConditionalV1(t *testing.T) {
	cases := []struct {
		name   string
		path   string
		params func() url.Values
		// inScope appends a record the query's scope can observe;
		// outScope appends one it cannot. Either may be nil when the
		// endpoint has no such append (the catalog is immutable).
		inScope  func(db *store.Store)
		outScope func(db *store.Store)
	}{
		{
			name: "stable",
			path: "/v1/stable",
			params: func() url.Values {
				q := window()
				q.Set("region", "us-east-1")
				return q
			},
			inScope: func(db *store.Store) {
				db.AppendSpike(store.SpikeEvent{At: t0.Add(3 * time.Hour), Market: mktA, Ratio: 2})
			},
			outScope: func(db *store.Store) {
				db.AppendSpike(store.SpikeEvent{At: t0.Add(3 * time.Hour), Market: mktEU, Ratio: 2})
			},
		},
		{
			name: "volatile",
			path: "/v1/volatile",
			params: func() url.Values {
				q := window()
				q.Set("region", "us-east-1")
				return q
			},
			inScope: func(db *store.Store) {
				db.AppendRevocation(store.RevocationRecord{At: t0.Add(time.Hour), Market: mktA, Bid: 1, Held: time.Hour})
			},
			outScope: func(db *store.Store) {
				db.AppendRevocation(store.RevocationRecord{At: t0.Add(time.Hour), Market: mktEU, Bid: 1, Held: time.Hour})
			},
		},
		{
			name: "unavailability",
			path: "/v1/unavailability",
			params: func() url.Values {
				q := window()
				q.Set("market", mktA.String())
				return q
			},
			inScope: func(db *store.Store) {
				db.AppendProbe(store.ProbeRecord{At: t0.Add(7 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand})
			},
			outScope: func(db *store.Store) {
				db.AppendProbe(store.ProbeRecord{At: t0.Add(2 * time.Hour), Market: mktB, Kind: store.ProbeOnDemand})
			},
		},
		{
			name: "prices",
			path: "/v1/prices",
			params: func() url.Values {
				q := window()
				q.Set("market", mktA.String())
				return q
			},
			inScope: func(db *store.Store) {
				db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Hour), Price: 1})
			},
			outScope: func(db *store.Store) {
				db.RecordPrice(mktB, store.PricePoint{At: t0.Add(time.Hour), Price: 1})
			},
		},
		{
			name:   "summary",
			path:   "/v1/summary",
			params: func() url.Values { return url.Values{} },
			// The summary's scope is the whole store: every append is in
			// scope.
			inScope: func(db *store.Store) {
				db.AppendProbe(store.ProbeRecord{At: t0.Add(2 * time.Hour), Market: mktEU, Kind: store.ProbeOnDemand})
			},
		},
		{
			name:   "markets",
			path:   "/v1/markets",
			params: func() url.Values { return url.Values{} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, db := testServer(t)
			addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))

			first := getWithETag(t, srv, tc.path, tc.params(), "")
			if first.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200", first.StatusCode)
			}
			etag := first.Header.Get(api.HeaderETag)
			if etag == "" {
				t.Fatal("200 response carries no ETag")
			}

			// Replaying the tag revalidates without a body.
			resp := getWithETag(t, srv, tc.path, tc.params(), etag)
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("replay status = %d, want 304", resp.StatusCode)
			}
			if got := resp.Header.Get(api.HeaderETag); got != etag {
				t.Errorf("304 ETag = %s, want %s", got, etag)
			}

			if tc.outScope != nil {
				tc.outScope(db)
				if resp := getWithETag(t, srv, tc.path, tc.params(), etag); resp.StatusCode != http.StatusNotModified {
					t.Errorf("out-of-scope append: status = %d, want 304", resp.StatusCode)
				}
			}
			if tc.inScope != nil {
				tc.inScope(db)
				resp := getWithETag(t, srv, tc.path, tc.params(), etag)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("in-scope append: status = %d, want 200", resp.StatusCode)
				}
				if fresh := resp.Header.Get(api.HeaderETag); fresh == "" || fresh == etag {
					t.Errorf("in-scope append: ETag %q did not rotate from %q", fresh, etag)
				}
			}
		})
	}
}

// TestConditionalV1ErrorNoETag: error envelopes carry no validator.
func TestConditionalV1ErrorNoETag(t *testing.T) {
	srv, _ := testServer(t)
	q := window()
	q.Set("market", "not-a-market")
	resp := getWithETag(t, srv, "/v1/unavailability", q, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if etag := resp.Header.Get(api.HeaderETag); etag != "" {
		t.Errorf("error response carries ETag %q", etag)
	}
}

// TestConditionalV1RelativeWindowClockBound: a relative window binds the
// tag to the service clock — same store, advanced clock, different tag —
// while an absolute window's tag survives the clock change.
func TestConditionalV1RelativeWindowClockBound(t *testing.T) {
	db := store.New()
	now := t0.Add(24 * time.Hour)
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return now })
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))

	rel := url.Values{"market": {mktA.String()}, "window": {"24h"}}
	abs := window()
	abs.Set("market", mktA.String())

	relResp := getWithETag(t, srv, "/v1/unavailability", rel, "")
	absResp := getWithETag(t, srv, "/v1/unavailability", abs, "")
	relTag, absTag := relResp.Header.Get(api.HeaderETag), absResp.Header.Get(api.HeaderETag)

	now = now.Add(time.Hour) // the service clock ticks; no append
	if resp := getWithETag(t, srv, "/v1/unavailability", rel, relTag); resp.StatusCode != http.StatusOK {
		t.Errorf("relative window after clock tick: status = %d, want 200 (tag must rotate)", resp.StatusCode)
	}
	if resp := getWithETag(t, srv, "/v1/unavailability", abs, absTag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("absolute window after clock tick: status = %d, want 304", resp.StatusCode)
	}
}

// postBatchETag posts a v2 batch with an optional If-None-Match header
// and returns the raw response (body drained and closed).
func postBatchETag(t *testing.T, srv *httptest.Server, reqBody api.BatchRequest, etag string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(reqBody)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v2/query", bytes.NewReader(body))
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
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestConditionalV2Batch: the batch envelope revalidates as one unit —
// 304 while every spec's scope is unchanged, full response with a rotated
// tag once any spec's scope sees an append.
func TestConditionalV2Batch(t *testing.T) {
	srv, db := testServer(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))

	batch := api.BatchRequest{Queries: []api.Query{
		{Kind: api.KindStable, Region: "us-east-1", Window: api.Between(t0, t0.Add(24*time.Hour))},
		{Kind: api.KindUnavailability, Market: mktA.String(), Window: api.Between(t0, t0.Add(24*time.Hour))},
	}}

	first, body := postBatchETag(t, srv, batch, "")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", first.StatusCode, body)
	}
	etag := first.Header.Get(api.HeaderETag)
	if etag == "" {
		t.Fatal("batch 200 carries no ETag")
	}

	resp, body := postBatchETag(t, srv, batch, etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("replay status = %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}

	// Out-of-scope append: both specs read us-east-1 only.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktEU, Ratio: 2})
	if resp, _ := postBatchETag(t, srv, batch, etag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("out-of-scope append: status = %d, want 304", resp.StatusCode)
	}

	// An append inside either spec's scope rotates the batch tag.
	db.AppendProbe(store.ProbeRecord{At: t0.Add(7 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand})
	resp, body = postBatchETag(t, srv, batch, etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-scope append: status = %d, want 200", resp.StatusCode)
	}
	if fresh := resp.Header.Get(api.HeaderETag); fresh == etag || fresh == "" {
		t.Errorf("in-scope append: batch ETag %q did not rotate", fresh)
	}
	var decoded api.BatchResponse
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(decoded.Results))
	}
}

// TestETagRetiresValidatorsOfTheOldPriceFold: a price mean now adds sealed
// chunk sums, so the same records can render different bytes than they did
// under the left-to-right fold, and the response format hashed into every
// tag moved with it. The pinned tag is the one the previous format minted
// for this exact spec, salt and generation; it must no longer revalidate.
func TestETagRetiresValidatorsOfTheOldPriceFold(t *testing.T) {
	db := store.New()
	for i := 0; i < 40; i++ {
		db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Duration(i) * time.Hour), Price: 0.1 + float64(i%7)/100})
	}
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0.Add(48 * time.Hour) })
	a.SetETagSalt(0x5eed)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	batch := api.BatchRequest{Queries: []api.Query{{
		Kind: api.KindAdvise, Window: api.Between(t0, t0.Add(48*time.Hour)),
		Advise: &api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 3},
	}}}
	const oldFormatTag = `"890c3daeb671e98d"`
	if db.GlobalGeneration() != 40 {
		t.Fatalf("generation %d, the pinned tag was minted at 40", db.GlobalGeneration())
	}
	resp, body := postBatchETag(t, srv, batch, oldFormatTag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("old-format validator: status %d, want 200", resp.StatusCode)
	}
	if tag := resp.Header.Get(api.HeaderETag); tag == oldFormatTag || tag == "" {
		t.Fatalf("ETag %q, want a new non-empty tag", tag)
	}
	if len(body) == 0 {
		t.Fatal("200 without a body")
	}
}

// etagOracle is the fmt form the strong ETag was computed in before keys
// were appended with strconv: every tag a client holds was minted by it,
// so the key's preimage must hash to exactly this.
func etagOracle(a *API, qs []api.Query, now time.Time) string {
	const responseFormat = 2
	h := fnv.New64a()
	fmt.Fprintf(h, "format|%d|epoch|%d\n", responseFormat, a.epoch)
	clockBound := false
	for _, q := range qs {
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%d|%g|%s|%g|%d|%d|%s|%d\n",
			q.Kind, q.Market, q.Region, q.Product, q.Contract, q.N,
			q.Ratio, q.Horizon, q.Utilization,
			q.From.UnixNano(), q.To.UnixNano(), q.Rel,
			a.queryScopeGen(q))
		if c := q.Advise; c != nil {
			fmt.Fprintf(h, "advise|%s|%s|%s|%d|%g|%g|%g|%d\n",
				strings.Join(c.Regions, ","), strings.Join(c.Products, ","),
				c.InstanceTypes, c.MinVCPU, c.MinMemoryGB,
				c.MaxPricePerHour, c.MaxInterruptionRate, c.N)
		}
		clockBound = clockBound || dependsOnNow(q)
	}
	if clockBound {
		fmt.Fprintf(h, "now|%d", now.UnixNano())
	}
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}

// TestETagMatchesFmtOracle: over a seeded corpus of query sets — every
// kind, floats that fmt and strconv could print apart (NaN, ±Inf, −0,
// 1e21, 5e-324), negative n, nil, empty and multi-entry advise lists, and
// relative, absolute, zone-shifted and missing windows — the key's
// preimage hashes to the tag etagOracle mints, and the key opens with its
// route.
func TestETagMatchesFmtOracle(t *testing.T) {
	db := store.New()
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	db.RecordPrice(mktEU, store.PricePoint{At: t0, Price: 0.2})
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktB, Ratio: 2})
	a := NewAPI(NewEngine(db, market.New()), nil)
	a.SetETagSalt(0x5eed)

	east := time.FixedZone("+02:00", 2*60*60)
	floats := []float64{0, 1.5, 0.1, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 5e-324, -7.25e-9}
	windows := []api.Window{
		{}, api.Last(24 * time.Hour), {Rel: "90m"}, {Rel: "garbage"},
		api.Between(t0, t0.Add(24*time.Hour)), api.Between(t0.In(east), t0.Add(time.Hour).In(east)),
		{From: t0}, {From: time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), To: t0},
	}
	kinds := []api.Kind{api.KindUnavailability, api.KindStable, api.KindVolatile, api.KindFallback, api.KindPrices,
		api.KindOutages, api.KindPredict, api.KindReservedValue, api.KindMarkets, api.KindSummary, api.KindAdvise, "bogus"}
	lists := [][]string{nil, {}, {"us-east-1"}, {"us-east-1", "eu-west-1"}, {"all"}}
	pick := func(r *rand.Rand, s []string) string { return s[r.Intn(len(s))] }
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		qs := make([]api.Query, 1+r.Intn(4))
		for j := range qs {
			q := api.Query{
				Kind:        kinds[r.Intn(len(kinds))],
				Market:      pick(r, []string{"", mktA.String(), mktB.String(), mktEU.String(), "not-a-market"}),
				Region:      pick(r, []string{"", "us-east-1", "eu-west-1"}),
				Product:     pick(r, []string{"", "Linux/UNIX", "Windows"}),
				Contract:    pick(r, []string{"", "od", "spot"}),
				N:           []int{0, 5, -3, 1000}[r.Intn(4)],
				Ratio:       floats[r.Intn(len(floats))],
				Horizon:     pick(r, []string{"", "15m"}),
				Utilization: floats[r.Intn(len(floats))],
				Window:      windows[r.Intn(len(windows))],
			}
			if r.Intn(2) == 0 {
				q.Advise = &api.AdviseConstraints{
					Regions: lists[r.Intn(len(lists))], Products: lists[r.Intn(2)],
					InstanceTypes: pick(r, []string{"", "c3.*", "m3.large"}), MinVCPU: r.Intn(9) - 1,
					MinMemoryGB: floats[r.Intn(len(floats))], MaxPricePerHour: floats[r.Intn(len(floats))],
					MaxInterruptionRate: floats[r.Intn(len(floats))], N: r.Intn(12) - 1,
				}
			}
			qs[j] = q
		}
		now := t0.Add(time.Duration(r.Intn(96)) * time.Hour)
		route := pick(r, []string{"stable", "batch[" + strconv.Itoa(len(qs)) + "]", "advise"})
		key, pre, _ := a.appendKey(nil, route, qs, now)
		if got, want := etagOf(key[pre:]), etagOracle(a, qs, now); got != want {
			t.Fatalf("set %d: tag %s, oracle %s\npreimage %q\nspecs %+v", i, got, want, key[pre:], qs)
		}
		if string(key[:pre]) != route+"\n" {
			t.Fatalf("set %d: key opens %q, want route %q", i, key[:pre], route)
		}
	}
}
