package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metrics")
	}
	// None of these may panic.
	c.Inc()
	c.Add(5)
	g.Add(-1)
	h.Observe(time.Millisecond)
	r.CounterFunc("f", "", func() float64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("nil metrics must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot must be nil")
	}
}

func TestCounterGaugeGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests", "route", "/v1/summary")
	b := r.Counter("reqs_total", "requests", "route", "/v1/summary")
	if a != b {
		t.Fatalf("same name+labels must return the same counter")
	}
	other := r.Counter("reqs_total", "requests", "route", "/v1/stable")
	if a == other {
		t.Fatalf("distinct label sets must be distinct children")
	}
	a.Add(2)
	a.Inc()
	if got := b.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := r.Gauge("inflight", "")
	g.Add(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	// 100 observations at ~2ms: p50 and p99 must land inside the
	// (1ms, 2.5ms] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	for _, q := range []float64{0.50, 0.99} {
		got := h.Quantile(q)
		if got <= 0.001 || got > 0.0025 {
			t.Fatalf("Quantile(%v) = %v, want within (0.001, 0.0025]", q, got)
		}
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	// An observation beyond every bound reports the last bound.
	h2 := r.Histogram("lat2_seconds", "")
	h2.Observe(time.Hour)
	if got := h2.Quantile(0.5); math.Abs(got-10.0) > 1e-9 {
		t.Fatalf("overflow quantile = %v, want 10s (last bound)", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("spot_requests_total", "Requests served.", "route", "/v1/summary", "status", "200").Add(4)
	r.Gauge("spot_in_flight", "In flight.").Add(2)
	r.Histogram("spot_latency_seconds", "Latency.", "route", "/v1/summary").Observe(2 * time.Millisecond)
	r.GaugeFunc("spot_generation", "Store generation.", func() float64 { return 42 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP spot_requests_total Requests served.",
		"# TYPE spot_requests_total counter",
		`spot_requests_total{route="/v1/summary",status="200"} 4`,
		"# TYPE spot_in_flight gauge",
		"spot_in_flight 2",
		"# TYPE spot_latency_seconds histogram",
		`spot_latency_seconds_bucket{route="/v1/summary",le="0.0025"} 1`,
		`spot_latency_seconds_bucket{route="/v1/summary",le="+Inf"} 1`,
		`spot_latency_seconds_count{route="/v1/summary"} 1`,
		"spot_generation 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 100µs bucket must read 0, not be absent.
	if !strings.Contains(out, `le="0.0001"} 0`) {
		t.Fatalf("expected cumulative zero bucket in:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "node", `a"b\c`).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `node="a\"b\\c"`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

func TestJSONSnapshotAndHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("spot_reqs_total", "", "route", "/x").Add(9)
	h := r.Histogram("spot_lat_seconds", "")
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	r.CounterFunc("spot_hits_total", "", func() float64 { return 11 })

	rr := httptest.NewRecorder()
	r.JSONHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/v2/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var fams []FamilySnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &fams); err != nil {
		t.Fatalf("decode: %v", err)
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["spot_reqs_total"]; len(f.Values) != 1 || f.Values[0].Value != 9 || f.Values[0].Labels["route"] != "/x" {
		t.Fatalf("counter snapshot wrong: %+v", f)
	}
	if f := byName["spot_lat_seconds"]; len(f.Values) != 1 || f.Values[0].Count != 10 || f.Values[0].P99 <= 0 {
		t.Fatalf("histogram snapshot wrong: %+v", f)
	}
	if f := byName["spot_hits_total"]; len(f.Values) != 1 || f.Values[0].Value != 11 {
		t.Fatalf("func snapshot wrong: %+v", f)
	}

	rr = httptest.NewRecorder()
	r.TextHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("text content type = %q", rr.Header().Get("Content-Type"))
	}
	if !strings.Contains(rr.Body.String(), "spot_reqs_total") {
		t.Fatalf("text exposition empty: %s", rr.Body.String())
	}
}

func TestInstrumentMiddleware(t *testing.T) {
	r := NewRegistry()
	h := Instrument(r, "/v1/summary", statusHandler(200))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/summary", nil))
	h304 := Instrument(r, "/v1/summary", statusHandler(304))
	h304.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/summary", nil))

	if got := r.Counter(httpRequestsName, "", "route", "/v1/summary", "status", "200").Value(); got != 1 {
		t.Fatalf("200 count = %d, want 1", got)
	}
	if got := r.Counter(httpRequestsName, "", "route", "/v1/summary", "status", "304").Value(); got != 1 {
		t.Fatalf("304 count = %d, want 1", got)
	}
	if got := r.Counter(httpNotModifiedName, "", "route", "/v1/summary").Value(); got != 1 {
		t.Fatalf("not-modified count = %d, want 1", got)
	}
	if got := r.Histogram(httpLatencyName, "", "route", "/v1/summary").Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	if got := r.Gauge(httpInFlightName, "").Value(); got != 0 {
		t.Fatalf("in-flight settled at %d, want 0", got)
	}
}

func statusHandler(status int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
	})
}

// TestRuntimeSeries scrapes the runtime series after a collection and
// finds each one with a value above zero.
func TestRuntimeSeries(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	runtime.GC()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spotlight_go_heap_live_bytes", "spotlight_go_gc_cycles_total", "spotlight_go_gc_pause_cpu_seconds_total", "spotlight_go_goroutines"} {
		found := false
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				found = true
				if f, err := strconv.ParseFloat(v, 64); err != nil || f <= 0 {
					t.Errorf("%s = %q, want a value > 0", name, v)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from the scrape:\n%s", name, sb.String())
		}
	}
}
