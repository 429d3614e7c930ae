package obs

import (
	"net/http"
	"strconv"
	"time"
)

// Shared HTTP family names: the query API and the gateway register into
// the same families so dashboards see one shape everywhere.
const (
	httpRequestsName    = "spotlight_http_requests_total"
	httpRequestsHelp    = "HTTP requests served, by route and status code."
	httpLatencyName     = "spotlight_http_request_seconds"
	httpLatencyHelp     = "HTTP request latency by route."
	httpInFlightName    = "spotlight_http_in_flight"
	httpInFlightHelp    = "HTTP requests currently being served."
	httpNotModifiedName = "spotlight_http_not_modified_total"
	httpNotModifiedHelp = "Conditional requests answered 304 Not Modified, by route."
)

// statusRecorder captures the response status for the request counter.
// It passes Flush through so instrumented SSE streams (/v2/watch) keep
// flushing frames mid-response.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets an http.ResponseController reach the connection, to set a
// stream's write deadline.
func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// Instrument wraps next with per-route HTTP metrics: request totals by
// status, a latency histogram, the shared in-flight gauge, and a 304
// counter (the cache-efficiency numerator). The route label is fixed at
// registration so per-request work is two atomic adds, one histogram
// observe, and one status-child lookup. With a nil registry it returns
// next untouched.
func Instrument(reg *Registry, route string, next http.Handler) http.Handler {
	if reg == nil {
		return next
	}
	inFlight := reg.Gauge(httpInFlightName, httpInFlightHelp)
	latency := reg.Histogram(httpLatencyName, httpLatencyHelp, "route", route)
	notModified := reg.Counter(httpNotModifiedName, httpNotModifiedHelp, "route", route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		inFlight.Add(-1)
		latency.Observe(time.Since(start))
		if rec.status == http.StatusNotModified {
			notModified.Inc()
		}
		reg.Counter(httpRequestsName, httpRequestsHelp,
			"route", route, "status", strconv.Itoa(rec.status)).Inc()
	})
}
