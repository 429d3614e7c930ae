// Package loadgen drives a SpotLight serving surface — a single node, a
// replica fleet, or a gateway — with a mixed read workload and records
// per-operation latency distributions. Command spotload is the flag
// wrapper; its -smoke mode boots a leader, a follower, and a gateway
// in-process and proves the gateway path under load.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

// Config shapes one load run.
type Config struct {
	// Targets are the base URLs under load (at least one). Workers spread
	// requests across them round-robin.
	Targets []string
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// Concurrency is the worker count issuing queries (default 4).
	Concurrency int
	// Watchers opens that many live /v2/watch streams for the run and
	// counts delivered events (default 0).
	Watchers int
	// Seed makes the per-worker op mix reproducible (default 1).
	Seed int64
	// HTTPClient overrides the transport (nil: http.DefaultClient).
	HTTPClient *http.Client
}

// OpStats is one operation's recorded latency distribution.
type OpStats struct {
	Name   string
	Count  int
	Errors int
	Mean   time.Duration
	P50    time.Duration
	P90    time.Duration
	P95    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Report is the outcome of one run.
type Report struct {
	Targets     []string
	Duration    time.Duration
	Concurrency int
	Watchers    int
	Requests    int
	Errors      int
	Throughput  float64 // requests per second
	WatchEvents uint64
	Ops         []OpStats // sorted by name
}

// recorder accumulates raw samples; workers hold the lock only long
// enough to append.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]time.Duration
	errs    map[string]int
}

func (r *recorder) record(op string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.errs[op]++
		return
	}
	r.samples[op] = append(r.samples[op], d)
}

// op is one workload element; weight biases the mix toward the cheap
// interactive queries real monitors issue most.
type op struct {
	name   string
	weight int
	run    func(ctx context.Context, c *client.Client, rng *rand.Rand) error
}

// Run executes the workload and returns the recorded distributions. It
// fails fast if no target answers the market catalog probe; individual
// query errors during the run are counted, not fatal.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("loadgen: at least one target is required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	clients := make([]*client.Client, len(cfg.Targets))
	for i, t := range cfg.Targets {
		c, err := client.New(t, cfg.HTTPClient)
		if err != nil {
			return nil, fmt.Errorf("loadgen: target %d: %w", i, err)
		}
		clients[i] = c
	}

	// The market-scoped operations need real market IDs; the catalog is
	// identical on every node, so one probe covers the fleet.
	catCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	infos, err := clients[0].Markets(catCtx, "us-east-1", "")
	cancel()
	if err != nil {
		return nil, fmt.Errorf("loadgen: market catalog probe of %s: %w", cfg.Targets[0], err)
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("loadgen: %s returned an empty market catalog", cfg.Targets[0])
	}
	markets := make([]string, 0, 16)
	for _, m := range infos {
		markets = append(markets, m.Market)
		if len(markets) == 16 {
			break
		}
	}
	window := api.Last(24 * time.Hour)
	ops := []op{
		{name: "unavailability", weight: 4, run: func(ctx context.Context, c *client.Client, rng *rand.Rand) error {
			_, err := c.Unavailability(ctx, markets[rng.Intn(len(markets))], "spot", window)
			return err
		}},
		{name: "prices", weight: 3, run: func(ctx context.Context, c *client.Client, rng *rand.Rand) error {
			_, err := c.Prices(ctx, markets[rng.Intn(len(markets))], window)
			return err
		}},
		{name: "stable", weight: 2, run: func(ctx context.Context, c *client.Client, rng *rand.Rand) error {
			_, err := c.Stable(ctx, "us-east-1", "", 10, window)
			return err
		}},
		{name: "summary", weight: 2, run: func(ctx context.Context, c *client.Client, rng *rand.Rand) error {
			_, err := c.Summary(ctx)
			return err
		}},
		{name: "batch", weight: 3, run: func(ctx context.Context, c *client.Client, rng *rand.Rand) error {
			resp, err := c.Batch(ctx,
				api.Query{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: window},
				api.Query{Kind: api.KindSummary},
				api.Query{Kind: api.KindUnavailability, Market: markets[rng.Intn(len(markets))], Window: window},
			)
			if err != nil {
				return err
			}
			for _, res := range resp.Results {
				if res.Error != nil {
					return res.Error
				}
			}
			return nil
		}},
	}
	var mix []op // weight-expanded
	for _, o := range ops {
		for i := 0; i < o.weight; i++ {
			mix = append(mix, o)
		}
	}

	runCtx, cancelRun := context.WithTimeout(ctx, cfg.Duration)
	defer cancelRun()

	// Live streams ride along for the whole run; events are counted, not
	// timed (delivery cadence belongs to the simulation, not the server).
	var watchEvents atomic.Uint64
	var watches []*client.Watch
	for i := 0; i < cfg.Watchers; i++ {
		w, err := clients[i%len(clients)].Watch(runCtx, client.WatchOptions{Buffer: 256})
		if err != nil {
			return nil, fmt.Errorf("loadgen: watcher %d: %w", i, err)
		}
		watches = append(watches, w)
		go func(w *client.Watch) {
			for ev := range w.Events() {
				if ev.Kind != api.EventHello {
					watchEvents.Add(1)
				}
			}
		}(w)
	}

	rec := &recorder{samples: make(map[string][]time.Duration), errs: make(map[string]int)}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)))
			for n := 0; runCtx.Err() == nil; n++ {
				o := mix[rng.Intn(len(mix))]
				c := clients[(worker+n)%len(clients)]
				t0 := time.Now()
				err := o.run(runCtx, c, rng)
				if runCtx.Err() != nil {
					return // the deadline cut this request short; don't count it
				}
				rec.record(o.name, time.Since(t0), err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, w := range watches {
		w.Close()
	}

	rep := &Report{
		Targets:     cfg.Targets,
		Duration:    elapsed,
		Concurrency: cfg.Concurrency,
		Watchers:    cfg.Watchers,
		WatchEvents: watchEvents.Load(),
	}
	names := make([]string, 0, len(rec.samples))
	for name := range rec.samples {
		names = append(names, name)
	}
	for name := range rec.errs {
		if _, ok := rec.samples[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s := summarize(name, rec.samples[name], rec.errs[name])
		rep.Requests += s.Count + s.Errors
		rep.Errors += s.Errors
		rep.Ops = append(rep.Ops, s)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Requests) / secs
	}
	return rep, nil
}

// summarize computes one op's distribution from its raw samples.
func summarize(name string, samples []time.Duration, errs int) OpStats {
	s := OpStats{Name: name, Count: len(samples), Errors: errs}
	if len(samples) == 0 {
		return s
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	s.Mean = sum / time.Duration(len(samples))
	s.P50 = percentile(samples, 0.50)
	s.P90 = percentile(samples, 0.90)
	s.P95 = percentile(samples, 0.95)
	s.P99 = percentile(samples, 0.99)
	s.Max = samples[len(samples)-1]
	return s
}

// percentile reads the q-th quantile from an ascending-sorted sample set
// (nearest-rank method).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String renders the report as the fixed-width table spotload prints and
// CI archives.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spotload: %d target(s), %d workers, %d watchers, %v\n",
		len(r.Targets), r.Concurrency, r.Watchers, r.Duration.Round(time.Millisecond))
	for _, t := range r.Targets {
		fmt.Fprintf(&b, "  target %s\n", t)
	}
	fmt.Fprintf(&b, "requests: %d (%.1f/s), errors: %d, watch events: %d\n\n",
		r.Requests, r.Throughput, r.Errors, r.WatchEvents)
	fmt.Fprintf(&b, "%-16s %7s %7s %9s %9s %9s %9s %9s %9s\n",
		"op", "count", "errors", "mean", "p50", "p90", "p95", "p99", "max")
	for _, s := range r.Ops {
		fmt.Fprintf(&b, "%-16s %7d %7d %9s %9s %9s %9s %9s %9s\n",
			s.Name, s.Count, s.Errors,
			fmtDur(s.Mean), fmtDur(s.P50), fmtDur(s.P90), fmtDur(s.P95), fmtDur(s.P99), fmtDur(s.Max))
	}
	return b.String()
}

// fmtDur keeps the latency columns readable: microsecond precision under
// a millisecond, 10µs precision above.
func fmtDur(d time.Duration) string {
	if d < time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(10 * time.Microsecond).String()
}
