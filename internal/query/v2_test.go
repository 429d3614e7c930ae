package query

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// postBatch sends a BatchRequest and decodes the response envelope.
func postBatch(t *testing.T, srv *httptest.Server, queries ...api.Query) (*http.Response, api.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(api.BatchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestV2BatchMixedKinds drives one batch through five distinct kinds and
// checks each typed payload arm.
func TestV2BatchMixedKinds(t *testing.T) {
	srv, db := testServer(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktB, Ratio: 2})
	db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Hour), Price: 0.42})

	w := api.Between(t0, t0.Add(24*time.Hour))
	resp, out := postBatch(t, srv,
		api.Query{Kind: api.KindUnavailability, Market: mktA.String(), Window: w},
		api.Query{Kind: api.KindStable, Region: "us-east-1", N: 3, Window: w},
		api.Query{Kind: api.KindFallback, Market: mktA.String(), N: 4, Window: w},
		api.Query{Kind: api.KindPrices, Market: mktA.String(), Window: w},
		api.Query{Kind: api.KindSummary},
	)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(out.Results))
	}
	for i, res := range out.Results {
		if res.Error != nil {
			t.Fatalf("result %d (%s) errored: %v", i, res.Kind, res.Error)
		}
	}
	if got := out.Results[0].Unavailability; got == nil || got.Unavailability != 0.25 {
		t.Errorf("unavailability = %+v, want 0.25", got)
	}
	if got := out.Results[1].Stable; len(got) != 3 {
		t.Errorf("stable rows = %d, want 3", len(got))
	}
	if got := out.Results[2].Fallbacks; len(got) != 4 {
		t.Errorf("fallback rows = %d, want 4", len(got))
	}
	if got := out.Results[3].Prices; len(got) != 1 || got[0].Price != 0.42 {
		t.Errorf("prices = %+v", got)
	}
	if got := out.Results[4].Summary; len(got) != 1 || got[0].Region != "us-east-1" {
		t.Errorf("summary = %+v", got)
	}
}

// TestV2RelativeWindows resolves window=24h against the service clock
// (t0+24h in testServer), which must behave exactly like from=t0, to=now.
func TestV2RelativeWindows(t *testing.T) {
	srv, db := testServer(t)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))

	resp, out := postBatch(t, srv,
		api.Query{Kind: api.KindUnavailability, Market: mktA.String(), Window: api.Last(24 * time.Hour)},
		api.Query{Kind: api.KindStable, Region: "us-east-1", N: 2, Window: api.Window{Rel: "24h"}},
	)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := out.Results[0].Unavailability; got == nil || got.Unavailability != 0.25 {
		t.Errorf("relative-window unavailability = %+v, want 0.25", got)
	}
	if got := out.Results[1].Stable; len(got) != 2 {
		t.Errorf("relative-window stable rows = %d, want 2", len(got))
	}
	if want := t0.Add(24 * time.Hour); !out.Now.Equal(want) {
		t.Errorf("echoed now = %v, want %v", out.Now, want)
	}
}

// TestV2PerQueryErrorIsolation: a failing query reports its own envelope
// while its batchmates succeed, and the batch itself stays 200.
func TestV2PerQueryErrorIsolation(t *testing.T) {
	srv, _ := testServer(t)
	resp, out := postBatch(t, srv,
		api.Query{Kind: api.KindSummary},
		api.Query{Kind: api.KindUnavailability, Market: "garbage"},
		api.Query{Kind: "frobnicate"},
	)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (per-query isolation)", resp.StatusCode)
	}
	if out.Results[0].Error != nil {
		t.Errorf("healthy query poisoned: %v", out.Results[0].Error)
	}
	if got := out.Results[1].Error; got == nil || got.Code != api.CodeBadMarket {
		t.Errorf("bad market error = %+v, want code %s", got, api.CodeBadMarket)
	}
	if got := out.Results[2].Error; got == nil || got.Code != api.CodeUnknownKind {
		t.Errorf("unknown kind error = %+v, want code %s", got, api.CodeUnknownKind)
	}
}

// TestV2QueryErrorCodes is the per-kind validation table: every
// per-query error code, exercised through the batch envelope.
func TestV2QueryErrorCodes(t *testing.T) {
	srv, _ := testServer(t)
	w := api.Between(t0, t0.Add(24*time.Hour))
	tests := []struct {
		name string
		q    api.Query
		code string
	}{
		{"unknown kind", api.Query{Kind: "bogus"}, api.CodeUnknownKind},
		{"missing market", api.Query{Kind: api.KindUnavailability, Window: w}, api.CodeBadMarket},
		{"malformed market", api.Query{Kind: api.KindPrices, Market: "zone-only", Window: w}, api.CodeBadMarket},
		{"missing window", api.Query{Kind: api.KindStable}, api.CodeBadWindow},
		{"inverted window", api.Query{Kind: api.KindStable, Window: api.Between(t0.Add(time.Hour), t0)}, api.CodeBadWindow},
		{"half window", api.Query{Kind: api.KindStable, Window: api.Window{From: t0}}, api.CodeBadWindow},
		{"garbage relative window", api.Query{Kind: api.KindStable, Window: api.Window{Rel: "yesterday"}}, api.CodeBadWindow},
		{"negative relative window", api.Query{Kind: api.KindStable, Window: api.Window{Rel: "-4h"}}, api.CodeBadWindow},
		{"negative n", api.Query{Kind: api.KindStable, N: -3, Window: w}, api.CodeBadParam},
		{"bad contract kind", api.Query{Kind: api.KindUnavailability, Market: mktA.String(), Contract: "weird", Window: w}, api.CodeBadParam},
		{"negative ratio", api.Query{Kind: api.KindPredict, Market: mktA.String(), Ratio: -1, Window: w}, api.CodeBadParam},
		{"garbage horizon", api.Query{Kind: api.KindPredict, Market: mktA.String(), Ratio: 1, Horizon: "soon", Window: w}, api.CodeBadParam},
		{"negative horizon", api.Query{Kind: api.KindPredict, Market: mktA.String(), Ratio: 1, Horizon: "-5m", Window: w}, api.CodeBadParam},
		{"utilization above one", api.Query{Kind: api.KindReservedValue, Market: mktA.String(), Utilization: 1.5, Window: w}, api.CodeBadParam},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, out := postBatch(t, srv, tt.q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			got := out.Results[0].Error
			if got == nil || got.Code != tt.code {
				t.Errorf("error = %+v, want code %s", got, tt.code)
			}
		})
	}
}

// TestV2EnvelopeErrors covers the batch-level failures, which answer with
// a non-2xx status and the bare error envelope.
func TestV2EnvelopeErrors(t *testing.T) {
	srv, _ := testServer(t)

	post := func(body string) (*http.Response, api.Error) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		return resp, e
	}

	resp, e := post("{not json")
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
		t.Errorf("malformed body: status=%d code=%q", resp.StatusCode, e.Code)
	}

	resp, e = post(`{"queries": []}`)
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
		t.Errorf("empty batch: status=%d code=%q", resp.StatusCode, e.Code)
	}

	big := api.BatchRequest{Queries: make([]api.Query, api.MaxBatchQueries+1)}
	for i := range big.Queries {
		big.Queries[i] = api.Query{Kind: api.KindSummary}
	}
	body, _ := json.Marshal(big)
	resp, e = post(string(body))
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeTooManyQueries {
		t.Errorf("oversized batch: status=%d code=%q", resp.StatusCode, e.Code)
	}
	if e.Details["limit"] == "" || e.Details["got"] == "" {
		t.Errorf("oversized batch details = %+v, want limit and got", e.Details)
	}

	// GET on the batch endpoint is not routed.
	getResp, err := http.Get(srv.URL + "/v2/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/query status = %d, want 405", getResp.StatusCode)
	}
}

// TestWriteAPIErrStatusMapping covers the envelope-to-status mapping,
// including the internal code no live query path can trigger.
func TestWriteAPIErrStatusMapping(t *testing.T) {
	rec := httptest.NewRecorder()
	writeAPIErr(rec, api.Errorf(api.CodeInternal, "boom"))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("internal status = %d, want 500", rec.Code)
	}
	var e api.Error
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Code != api.CodeInternal {
		t.Errorf("internal envelope = %+v err=%v", e, err)
	}

	rec = httptest.NewRecorder()
	writeAPIErr(rec, api.Errorf(api.CodeBadWindow, "nope"))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad_window status = %d, want 400", rec.Code)
	}
}

// TestV2CacheHitAndInvalidationOverHTTP closes the loop through the HTTP
// layer: an identical stable+summary batch is one hit on the table of
// rendered answers, and an append to an in-scope shard makes it miss.
func TestV2CacheHitAndInvalidationOverHTTP(t *testing.T) {
	db := store.New()
	engine := NewEngine(db, market.New())
	apiSrv := NewAPI(engine, func() time.Time { return t0.Add(24 * time.Hour) })
	srv := httptest.NewServer(apiSrv.Handler())
	t.Cleanup(srv.Close)

	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})

	// N large enough to keep every us-east-1 market in the ranking, so
	// the spiked market is visible in the recomputed rows.
	batch := []api.Query{
		{Kind: api.KindStable, Region: "us-east-1", N: 1000, Window: api.Last(24 * time.Hour)},
		{Kind: api.KindSummary},
	}
	if resp, _ := postBatch(t, srv, batch...); resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch status = %d", resp.StatusCode)
	}
	hits0, _ := engine.CacheStats()
	if resp, _ := postBatch(t, srv, batch...); resp.StatusCode != http.StatusOK {
		t.Fatalf("second batch status = %d", resp.StatusCode)
	}
	hits1, _ := engine.CacheStats()
	if hits1 != hits0+1 {
		t.Errorf("repeated batch hits = %d -> %d, want +1 (the batch's body served from the table)", hits0, hits1)
	}

	// An append to a us-east-1 shard moves the batch's key.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktA, Ratio: 3})
	resp, out := postBatch(t, srv, batch...)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-append batch status = %d", resp.StatusCode)
	}
	hits2, _ := engine.CacheStats()
	if hits2 != hits1 {
		t.Errorf("post-append batch hit the stale cache (hits %d -> %d)", hits1, hits2)
	}
	// And the recomputed result reflects the append.
	found := false
	for _, row := range out.Results[0].Stable {
		if row.Market == mktA.String() && row.Crossings == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("recomputed stable rows missing updated crossings: %+v", out.Results[0].Stable)
	}
}
