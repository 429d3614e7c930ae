// Package obs is SpotLight's zero-dependency observability kit: an
// atomic metrics registry (counters, gauges, fixed-bucket latency
// histograms, labeled families) with Prometheus text and JSON
// exposition, a shared slog setup, and an optional pprof debug server.
//
// Two properties shape the design:
//
//   - Disabled must be free. Every metric type is nil-receiver safe: a
//     nil *Counter's Add is a no-op that inlines to one predictable
//     branch, so hot paths hold metric pointers unconditionally and a
//     store or API that never called EnableMetrics pays (measurably)
//     nothing. BenchmarkObsOverhead in the repo root pins this.
//   - Scrapes must not touch hot paths. Values that some subsystem
//     already counts (feed stats, replica status, cache hits, breaker
//     state) are exposed as CounterFunc/GaugeFunc collectors evaluated
//     at scrape time, never as extra work per request or per append.
//
// Registries are per node, not per process: the spotload drill boots a
// leader, two followers, and a gateway in one process and each serves
// its own /metrics.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil *Counter is a no-op, which is how disabled
// instrumentation stays free on hot paths.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value moved by deltas. Nil-receiver safe like
// Counter.
type Gauge struct{ v atomic.Int64 }

// Add adds delta (negative to decrement). No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Default histogram bucket bounds. Both sets are upper bounds in
// duration form; exposition converts to seconds.
var (
	// DefBuckets covers request latencies: 100µs to 10s.
	DefBuckets = []time.Duration{
		100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
	}
	// IOBuckets covers storage-layer latencies (WAL flushes land in the
	// tens of microseconds): 10µs to 1s.
	IOBuckets = []time.Duration{
		10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		time.Second,
	}
)

// Histogram is a fixed-bucket latency histogram: atomic bucket counts
// over duration upper bounds, plus a running count and sum. Quantiles
// are estimated by linear interpolation inside the winning bucket —
// exact enough for p50/p90/p99 dashboards without storing samples.
// Nil-receiver safe like Counter.
type Histogram struct {
	bounds  []int64 // upper bounds in nanoseconds, ascending
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	h := &Histogram{
		bounds:  make([]int64, len(bounds)),
		buckets: make([]atomic.Uint64, len(bounds)+1), // +1: the +Inf bucket
	}
	for i, b := range bounds {
		h.bounds[i] = int64(b)
	}
	return h
}

// Observe records one duration. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	i := 0
	for i < len(h.bounds) && ns > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-th quantile (q in [0,1]) in seconds by
// linear interpolation inside the bucket holding that rank. An
// observation beyond the last bound reports the last bound (the
// histogram cannot see past its buckets). Returns 0 with no
// observations or on a nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: the best available answer is the last bound.
				return float64(h.bounds[len(h.bounds)-1]) / 1e9
			}
			lo := 0.0
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(h.bounds[i])
			frac := (rank - cum) / n
			return (lo + frac*(hi-lo)) / 1e9
		}
		cum += n
	}
	return float64(h.bounds[len(h.bounds)-1]) / 1e9
}

// Metric kinds, also the exposition "# TYPE" strings.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one (label set) member of a family: exactly one of c/g/h/fn
// is set, matching the family's kind (fn backs CounterFunc and
// GaugeFunc collectors, evaluated at scrape time).
type child struct {
	key    string   // rendered label string `k1="v1",k2="v2"`, "" unlabeled
	labels []string // alternating key, value pairs
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one metric name: its type, help text, and children keyed by
// rendered label set.
type family struct {
	name, help, typ string
	bounds          []time.Duration // histogram families only

	mu       sync.Mutex
	children []*child
	byLabel  map[string]*child
}

// renderLabels builds the canonical exposition label string from
// alternating key/value pairs.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// child returns (creating if needed) the member for the label pairs.
func (f *family) child(pairs []string) *child {
	key := renderLabels(pairs)
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := f.byLabel[key]
	if ch == nil {
		ch = &child{key: key, labels: append([]string(nil), pairs...)}
		switch f.typ {
		case typeCounter:
			ch.c = &Counter{}
		case typeGauge:
			ch.g = &Gauge{}
		case typeHistogram:
			ch.h = newHistogram(f.bounds)
		}
		f.byLabel[key] = ch
		f.children = append(f.children, ch)
	}
	return ch
}

// snapshotChildren copies the child list sorted by label key, so
// exposition is deterministic regardless of registration order.
func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	out := append([]*child(nil), f.children...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Registry holds one node's metric families in registration order. All
// methods are safe for concurrent use, and all lookup methods are
// get-or-create: asking for the same name and label set twice returns
// the same metric, so independent subsystems can share a family. A nil
// *Registry returns nil metrics from every constructor — the no-op
// registry the overhead benchmark compares against.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor returns (creating if needed) the named family. The first
// registration fixes help, type, and buckets; later calls reuse them.
func (r *Registry) familyFor(name, help, typ string, bounds []time.Duration) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds, byLabel: make(map[string]*child)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	return f
}

// Counter returns the counter for name and the alternating key/value
// label pairs, registering both on first use. Nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, typeCounter, nil).child(labels).c
}

// Gauge returns the gauge for name and labels. Nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, typeGauge, nil).child(labels).g
}

// Histogram returns the DefBuckets histogram for name and labels. Nil
// on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.HistogramBuckets(name, help, DefBuckets, labels...)
}

// HistogramBuckets is Histogram with explicit bucket bounds (the first
// registration of a name fixes them).
func (r *Registry) HistogramBuckets(name, help string, bounds []time.Duration, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, typeHistogram, bounds).child(labels).h
}

// CounterFunc registers a collector whose monotone value is read by fn
// at scrape time — for totals some subsystem already counts, so scraping
// them costs the hot path nothing. Re-registering the same name and
// labels replaces the function. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.familyFor(name, help, typeCounter, nil).child(labels).fn = fn
}

// GaugeFunc is CounterFunc for instantaneous values.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.familyFor(name, help, typeGauge, nil).child(labels).fn = fn
}

// snapshotFamilies copies the family list in registration order.
func (r *Registry) snapshotFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}
