package query

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// postAdvise issues POST /v2/advise, optionally with If-None-Match.
func postAdvise(t *testing.T, srv *httptest.Server, areq api.AdviseRequest, etag string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(areq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v2/advise", bytes.NewReader(body))
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

// seedAdvisePrices prices mktA (c3.2xlarge, 8 vCPU) cheap and mktB
// (m3.large, 2 vCPU) mid-range across the test day.
func seedAdvisePrices(db *store.Store) {
	for i := 0; i < 24; i++ {
		at := t0.Add(time.Duration(i) * time.Hour)
		db.RecordPrice(mktA, store.PricePoint{At: at, Price: 0.05})
		db.RecordPrice(mktB, store.PricePoint{At: at, Price: 0.06})
	}
}

func TestHTTPAdvise(t *testing.T) {
	srv, db := testServer(t)
	seedAdvisePrices(db)

	resp, body := postAdvise(t, srv, api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 5},
		Window:            api.Between(t0, t0.Add(24*time.Hour)),
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	if resp.Header.Get(api.HeaderETag) == "" {
		t.Error("advise 200 carries no ETag")
	}
	var out api.AdviseResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) != 2 {
		t.Fatalf("candidates = %+v, want the two priced markets", out.Candidates)
	}
	if out.Candidates[0].Market != mktA.String() || out.Candidates[0].Rank != 1 {
		t.Errorf("top candidate = %+v, want %s at rank 1", out.Candidates[0], mktA)
	}
	if !out.From.Equal(t0) || !out.To.Equal(t0.Add(24*time.Hour)) {
		t.Errorf("window echo = %s..%s", out.From, out.To)
	}

	// The capacity floor excludes the 2-vCPU m3.large.
	resp, body = postAdvise(t, srv, api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{MinVCPU: 4},
		Window:            api.Between(t0, t0.Add(24*time.Hour)),
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) != 1 || out.Candidates[0].Market != mktA.String() {
		t.Errorf("MinVCPU=4 candidates = %+v, want only %s", out.Candidates, mktA)
	}

	// Impossible floors: an empty ranking is a 200, not an error.
	resp, body = postAdvise(t, srv, api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{MinVCPU: 1000},
		Window:            api.Between(t0, t0.Add(24*time.Hour)),
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) != 0 {
		t.Errorf("impossible floor candidates = %+v, want none", out.Candidates)
	}
}

func TestHTTPAdviseBadConstraint(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := postAdvise(t, srv, api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{Regions: []string{"mars-north-1"}},
	}, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeBadParam || e.Details["param"] != "regions" {
		t.Errorf("error envelope = %+v, want bad_param on regions", e)
	}
	if resp.Header.Get(api.HeaderETag) != "" {
		t.Error("error response carries an ETag")
	}
}

func TestHTTPAdviseConditional(t *testing.T) {
	srv, db := testServer(t)
	seedAdvisePrices(db)
	areq := api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1"}},
		Window:            api.Between(t0, t0.Add(24*time.Hour)),
	}

	first, body := postAdvise(t, srv, areq, "")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", first.StatusCode, body)
	}
	etag := first.Header.Get(api.HeaderETag)

	resp, body := postAdvise(t, srv, areq, etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("replay status = %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}

	// Out-of-scope append: the spec reads us-east-1 only.
	db.RecordPrice(mktEU, store.PricePoint{At: t0.Add(time.Hour), Price: 0.02})
	if resp, _ := postAdvise(t, srv, areq, etag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("out-of-scope append: status = %d, want 304", resp.StatusCode)
	}

	// An in-scope append rotates the tag and the recomputation sees it.
	db.RecordPrice(mktA, store.PricePoint{At: t0.Add(23*time.Hour + 30*time.Minute), Price: 0.04})
	resp, body = postAdvise(t, srv, areq, etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-scope append: status = %d, want 200", resp.StatusCode)
	}
	if fresh := resp.Header.Get(api.HeaderETag); fresh == etag || fresh == "" {
		t.Errorf("in-scope append: ETag %q did not rotate", fresh)
	}
	var out api.AdviseResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Candidates[0].PriceSamples != 25 {
		t.Errorf("post-append samples = %d, want 25", out.Candidates[0].PriceSamples)
	}

	// Distinct constraints get distinct tags.
	other, _ := postAdvise(t, srv, api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1"}, MinVCPU: 4},
		Window:            api.Between(t0, t0.Add(24*time.Hour)),
	}, "")
	if ot := other.Header.Get(api.HeaderETag); ot == resp.Header.Get(api.HeaderETag) {
		t.Errorf("different constraints share ETag %q", ot)
	}
}

// TestAdviseEchoesWindowInUTC: two advise requests over the same instants,
// one naming them in Z and one in +02:00, share one strong ETag, so they
// must share one body too — otherwise the +02:00 request revalidates to
// 304 against bytes it was never sent. The echoed window is UTC.
func TestAdviseEchoesWindowInUTC(t *testing.T) {
	srv, db := testServer(t)
	seedAdvisePrices(db)
	east := time.FixedZone("+02:00", 2*60*60)
	cons := api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 3}
	z, zBody := postAdvise(t, srv, api.AdviseRequest{AdviseConstraints: cons, Window: api.Between(t0, t0.Add(24*time.Hour))}, "")
	shifted := api.AdviseRequest{AdviseConstraints: cons, Window: api.Between(t0.In(east), t0.Add(24*time.Hour).In(east))}
	e, eBody := postAdvise(t, srv, shifted, "")
	if z.StatusCode != http.StatusOK || e.StatusCode != http.StatusOK {
		t.Fatalf("status %d and %d", z.StatusCode, e.StatusCode)
	}
	if zt, et := z.Header.Get(api.HeaderETag), e.Header.Get(api.HeaderETag); zt != et {
		t.Fatalf("same instants, tags %s and %s", zt, et)
	}
	if !bytes.Equal(zBody, eBody) {
		t.Errorf("one tag, two bodies:\nZ      %s\n+02:00 %s", zBody, eBody)
	}
	if !bytes.Contains(eBody, []byte(`"from":"2015-09-01T00:00:00Z","to":"2015-09-02T00:00:00Z"`)) {
		t.Errorf("echoed window is not UTC: %s", eBody)
	}
}

func TestBatchAdvise(t *testing.T) {
	srv, db := testServer(t)
	seedAdvisePrices(db)

	batch := api.BatchRequest{Queries: []api.Query{
		{Kind: api.KindAdvise, Window: api.Between(t0, t0.Add(24*time.Hour)),
			Advise: &api.AdviseConstraints{Regions: []string{"us-east-1"}, MinVCPU: 4}},
		{Kind: api.KindAdvise, Advise: &api.AdviseConstraints{Regions: []string{"nowhere-1"}}},
	}}
	resp, body := postBatchETag(t, srv, batch, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s", resp.StatusCode, body)
	}
	var out api.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(out.Results))
	}
	good := out.Results[0]
	if good.Error != nil || good.Advise == nil {
		t.Fatalf("advise arm = %+v, want a ranking", good)
	}
	if len(good.Advise.Candidates) != 1 || good.Advise.Candidates[0].Market != mktA.String() {
		t.Errorf("batch advise candidates = %+v, want only %s", good.Advise.Candidates, mktA)
	}
	// Per-query error isolation holds for the bad constraint arm.
	bad := out.Results[1]
	if bad.Error == nil || bad.Error.Code != api.CodeBadParam {
		t.Errorf("bad-region arm = %+v, want bad_param", bad)
	}
}

// FuzzAdviseBody posts arbitrary bodies to POST /v2/advise over a small
// store. The body is untrusted input, so every answer must be a 200 with
// an ETag and a decodable api.AdviseResponse, or a 400 whose api.Error
// has a code: never a panic, never a 5xx.
func FuzzAdviseBody(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"regions":["atlantis-1"]}`,
		`{"instanceTypes":"["}`,
		`{"n":101}`,
		`{"maxInterruptionRate":1.5}`,
		`{"regions":["us-east-1"],"instanceTypes":"c3.*","minVCPU":4,"window":"24h"}`,
		`{"regions":["us-east-1"],"n":`,
		// Duplicate, unsorted and "all"-mixed sets: Normalize sorts and
		// dedupes the known ones and names the first unknown one.
		`{"regions":["us-west-2","us-east-1","us-west-2","us-east-1"]}`,
		`{"products":["Windows","Linux/UNIX","Windows"],"regions":["us-east-1","us-east-1"]}`,
		`{"regions":["all","us-east-1"]}`,
		`{"regions":["us-east-1","all"],"products":["Linux/UNIX","all"]}`,
		`{"regions":["all"],"products":["SUSE Linux","Linux/UNIX","SUSE Linux"]}`,
	} {
		f.Add([]byte(seed))
	}
	db := store.New()
	seedAdvisePrices(db)
	h := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) }).Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/advise", bytes.NewReader(body)))
		out := w.Body.Bytes()
		switch w.Code {
		case http.StatusOK:
			var resp api.AdviseResponse
			if err := json.Unmarshal(out, &resp); err != nil || w.Header().Get(api.HeaderETag) == "" {
				t.Fatalf("%q: 200 with ETag %q and body %q (%v)", body, w.Header().Get(api.HeaderETag), out, err)
			}
		case http.StatusBadRequest:
			var e api.Error
			if err := json.Unmarshal(out, &e); err != nil || e.Code == "" {
				t.Fatalf("%q: 400 body %q is not an error envelope (%v)", body, out, err)
			}
		default:
			t.Fatalf("%q: status %d, body %q", body, w.Code, out)
		}
	})
}
