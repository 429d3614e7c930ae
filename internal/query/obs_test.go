package query

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/store"
)

func TestAPIMetricsExposition(t *testing.T) {
	db := store.New()
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	reg := obs.NewRegistry()
	a.EnableMetrics(reg)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	q := window()
	q.Set("market", mktA.String())
	resp, err := http.Get(srv.URL + "/v1/unavailability?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if etag == "" {
		t.Fatal("no ETag on 200 response")
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/unavailability?"+q.Encode(), nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status = %d, want 304", resp2.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`spotlight_http_requests_total{route="/v1/unavailability",status="200"} 1`,
		`spotlight_http_requests_total{route="/v1/unavailability",status="304"} 1`,
		`spotlight_http_not_modified_total{route="/v1/unavailability"} 1`,
		`spotlight_http_request_seconds_count{route="/v1/unavailability"} 2`,
		"spotlight_query_cache_hits_total",
		"spotlight_watch_streams 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	jresp, err := http.Get(srv.URL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	var fams []obs.FamilySnapshot
	if err := json.Unmarshal(jbody, &fams); err != nil {
		t.Fatalf("bad /v2/metrics JSON: %v\n%s", err, jbody)
	}
	found := false
	for _, f := range fams {
		if f.Name == "spotlight_http_requests_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/v2/metrics missing spotlight_http_requests_total:\n%s", jbody)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := store.New()
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	reg := obs.NewRegistry()
	a.EnableMetrics(reg)
	var logBuf bytes.Buffer
	a.SetSlowQuery(time.Nanosecond, slog.New(slog.NewTextHandler(&logBuf, nil)))
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	q := window()
	q.Set("market", mktA.String())
	// Every endpoint on the shared conditional path is traced — advise,
	// the slowest op on the board, included.
	for _, tc := range []struct {
		kind string
		do   func() (*http.Response, error)
	}{
		{"unavailability", func() (*http.Response, error) {
			return http.Get(srv.URL + "/v1/unavailability?" + q.Encode())
		}},
		{"advise", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v2/advise", "application/json", strings.NewReader("{}"))
		}},
	} {
		logBuf.Reset()
		before := reg.Counter("spotlight_slow_queries_total", "").Value()
		resp, err := tc.do()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", tc.kind, resp.StatusCode)
		}
		line := logBuf.String()
		for _, want := range []string{"slow query", "kind=" + tc.kind, "status=200", "parse=", "exec=", "cache_probe=", "encode="} {
			if !strings.Contains(line, want) {
				t.Fatalf("%s: slow-query log missing %q:\n%s", tc.kind, want, line)
			}
		}
		if got := reg.Counter("spotlight_slow_queries_total", "").Value(); got != before+1 {
			t.Fatalf("%s: slow_queries_total = %v, want %v", tc.kind, got, before+1)
		}
	}
}
