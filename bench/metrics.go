package main

import "fmt"

// class says where a metric is reported.
type class int

const (
	// endToEnd metrics are defined on every workload and listed under
	// end_to_end in BENCHMARK.json with a regression bound.
	endToEnd class = iota
	// endToEndOn metrics are what a user of one workload's topology sees
	// (freshness, recovery time, ...). They have a bound and appear in the
	// full report and BENCH_<pr>.json, but not in BENCHMARK.json: the
	// driver's contract wants every listed metric measured on every
	// workload.
	endToEndOn
	// perLayer metrics come from the traced pass. Those with every == true
	// are measured on all four workloads and listed in BENCHMARK.json.
	perLayer
)

// def is one row of the metric catalog.
type def struct {
	name   string
	class  class
	layer  string // repo module the number is taken at
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by (end-to-end only)
	every  bool    // perLayer: measured on every workload
	moves  string  // which end-to-end metric on which workload it should move
}

// Metric is one reported value: the median over rounds (or the single
// count-bounded measurement) with the spread beside it.
type Metric struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer,omitempty"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Value   float64 `json:"value"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
	Bound   float64 `json:"bound,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// The latency limit of the open-loop workload: a read slower than this
// from its due time is a slow read.
const latencyLimitMs = 10

var catalog = []def{
	// End-to-end, every workload. An "op" is one read on read-hot,
	// read-cold and live-fleet and one ingested record on ingest-recover;
	// the latency of an ingest op is its tick's (Step+OnTick+WAL flush).
	{name: "setup_s", class: endToEnd, unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", class: endToEnd, unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_us", class: endToEnd, unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_us_per_op", class: endToEnd, unit: "us", better: "lower", bound: 0.25},
	{name: "heap_bytes_per_record", class: endToEnd, unit: "B", better: "lower", bound: 0.05},

	// End-to-end, one topology.
	{name: "read_p99_us", class: endToEndOn, unit: "us", better: "lower", bound: 0.25},
	{name: "slow_read_share", class: endToEndOn, unit: "ratio", better: "lower", bound: 0.10},
	{name: "fresh_p50_ms", class: endToEndOn, unit: "ms", better: "lower", bound: 0.10},
	{name: "fresh_p90_ms", class: endToEndOn, unit: "ms", better: "lower", bound: 0.10},
	{name: "replica_catchup_p50_ms", class: endToEndOn, unit: "ms", better: "lower", bound: 0.10},
	{name: "ingest_records_per_s", class: endToEndOn, unit: "1/s", better: "higher", bound: 0.10},
	{name: "ingest_stall_s", class: endToEndOn, unit: "s", better: "lower", bound: 0.10},
	{name: "recover_s", class: endToEndOn, unit: "s", better: "lower", bound: 0.10},
	{name: "disk_bytes_per_record", class: endToEndOn, unit: "B", better: "lower", bound: 0},
	{name: "failed_ops_share", class: endToEndOn, unit: "ratio", better: "lower", bound: 0},

	// pkg/client — the read ladder's outermost rung and the open loop's own health.
	{name: "client.read_p50_us", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", every: true, moves: "latency_p50_us on the workload traced"},
	{name: "client.read_p99_us", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", every: true, moves: "read_p99_us; on live-fleet the tail slow_read_share counts"},
	{name: "client.self_us_p50", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", every: true, moves: "latency_p50_us, cpu_us_per_op on read-hot (URL build + JSON decode)"},
	{name: "client.wire_us_p50", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", every: true, moves: "latency_p50_us on read-hot (loopback + net/http both ends)"},
	{name: "client.open_p99_us", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", moves: "slow_read_share on live-fleet: the open loop's tail from due time, too unsteady to bound"},
	{name: "client.open_max_ms", class: perLayer, layer: "pkg/client", unit: "ms", better: "lower", moves: "slow_read_share on live-fleet"},
	{name: "client.sched_late_ms_p99", class: perLayer, layer: "pkg/client", unit: "ms", better: "lower", moves: "none: how late the open-loop generator itself ran"},
	{name: "client.direct_leader.p50_us", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", moves: "latency_p50_us on live-fleet"},
	{name: "client.direct_leader.p99_us", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", moves: "slow_read_share on live-fleet, leader side"},
	{name: "client.direct_follower.p50_us", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", moves: "latency_p50_us on live-fleet"},
	{name: "client.direct_follower.p99_us", class: perLayer, layer: "pkg/client", unit: "us", better: "lower", moves: "slow_read_share on live-fleet, follower side"},
	{name: "client.failed_ops", class: perLayer, layer: "pkg/client", unit: "count", better: "lower", every: true, moves: "failed_ops_share"},

	// internal/gateway
	{name: "gateway.hop_us_p50", class: perLayer, layer: "internal/gateway", unit: "us", better: "lower", moves: "latency_p50_us on live-fleet only"},
	{name: "gateway.upstream_p99_ms", class: perLayer, layer: "internal/gateway", unit: "ms", better: "lower", moves: "slow_read_share on live-fleet"},
	{name: "gateway.retries", class: perLayer, layer: "internal/gateway", unit: "count", better: "lower", every: true, moves: "slow_read_share on live-fleet"},
	{name: "gateway.hedges", class: perLayer, layer: "internal/gateway", unit: "count", better: "lower", every: true, moves: "slow_read_share on live-fleet"},
	{name: "gateway.breaker_opens", class: perLayer, layer: "internal/gateway", unit: "count", better: "lower", every: true, moves: "slow_read_share, failed_ops_share on live-fleet"},

	// internal/query (http)
	{name: "query.http.self_us_p50", class: perLayer, layer: "internal/query (http)", unit: "us", better: "lower", every: true, moves: "ops_per_s, cpu_us_per_op, latency_p50_us on read-hot; <= 10% of read-cold"},
	{name: "query.http.resp_bytes_p50", class: perLayer, layer: "internal/query (http)", unit: "B", better: "lower", every: true, moves: "client.wire_us_p50, client.self_us_p50"},
	{name: "query.http.allocs_per_req", class: perLayer, layer: "internal/query (http)", unit: "count", better: "lower", every: true, moves: "cpu_us_per_op on read-hot; runtime.gc_cycles"},
	{name: "query.http.alloc_bytes_per_req", class: perLayer, layer: "internal/query (http)", unit: "B", better: "lower", every: true, moves: "runtime.alloc_mb_per_s"},
	{name: "query.http.not_modified_share", class: perLayer, layer: "internal/query (http)", unit: "ratio", better: "higher", every: true, moves: "latency_p50_us on read-hot (revalidate ops)"},

	// internal/query (engine, cache)
	{name: "query.engine.self_us_p50", class: perLayer, layer: "internal/query (engine)", unit: "us", better: "lower", every: true, moves: "latency_p50_us, ops_per_s on read-cold"},
	{name: "query.engine.allocs_per_call", class: perLayer, layer: "internal/query (engine)", unit: "count", better: "lower", every: true, moves: "cpu_us_per_op on read-cold"},
	{name: "query.cache.hit_ratio", class: perLayer, layer: "internal/query (cache)", unit: "ratio", better: "higher", every: true, moves: "~1 on read-hot, ~0 on read-cold, falls with tick rate on live-fleet"},
	{name: "query.cache.misses", class: perLayer, layer: "internal/query (cache)", unit: "count", better: "lower", every: true, moves: "latency_p50_us on live-fleet"},

	// internal/advisor
	{name: "advisor.rank_us_p50", class: perLayer, layer: "internal/advisor", unit: "us", better: "lower", moves: "client.advise.p50_us -> latency_p50_us on read-cold"},
	{name: "advisor.memo_hit_ratio", class: perLayer, layer: "internal/advisor", unit: "ratio", better: "higher", every: true, moves: "client.advise.p50_us on read-cold (~0 there by construction)"},

	// internal/store (folds)
	{name: "store.fold.us_p50", class: perLayer, layer: "internal/store (folds)", unit: "us", better: "lower", every: true, moves: "latency_p50_us, ops_per_s, cpu_us_per_op on read-cold; none on read-hot"},
	{name: "store.fold.crossings_us_p50", class: perLayer, layer: "internal/store (folds)", unit: "us", better: "lower", moves: "client.stable/volatile on read-cold"},
	{name: "store.fold.overlap_us_p50", class: perLayer, layer: "internal/store (folds)", unit: "us", better: "lower", moves: "client.stable/fallback on read-cold"},
	{name: "store.fold.prices_us_p50", class: perLayer, layer: "internal/store (folds)", unit: "us", better: "lower", moves: "client.prices"},
	{name: "store.fold.allocs_per_call", class: perLayer, layer: "internal/store (folds)", unit: "count", better: "lower", every: true, moves: "cpu_us_per_op on read-cold"},

	// internal/core, internal/cloud
	{name: "core.tick_ms_p50", class: perLayer, layer: "internal/core", unit: "ms", better: "lower", every: true, moves: "ops_per_s on ingest-recover, setup_s on read-*; on live-fleet it is clock-mutex hold time -> slow_read_share, fresh_*"},
	{name: "core.tick_ms_p99", class: perLayer, layer: "internal/core", unit: "ms", better: "lower", every: true, moves: "slow_read_share on live-fleet"},
	{name: "core.tick_late_ms_p99", class: perLayer, layer: "internal/core", unit: "ms", better: "lower", moves: "none: lateness of the benchmark's own tick schedule on live-fleet"},
	{name: "core.records_per_tick", class: perLayer, layer: "internal/core", unit: "count", better: "lower", every: true, moves: "none: repeats exactly per seed; the size of one write"},
	{name: "cloud.step_ms_p50", class: perLayer, layer: "internal/cloud", unit: "ms", better: "lower", every: true, moves: "setup_s; ops_per_s on ingest-recover"},

	// internal/store (WAL, snapshot, replay)
	{name: "store.wal.ms_per_tick", class: perLayer, layer: "internal/store (wal)", unit: "ms", better: "lower", moves: "ops_per_s on ingest-recover only"},
	{name: "store.wal.flushes", class: perLayer, layer: "internal/store (wal)", unit: "count", better: "lower", every: true, moves: "ops_per_s on ingest-recover"},
	{name: "store.wal.bytes_per_record", class: perLayer, layer: "internal/store (wal)", unit: "B", better: "lower", every: true, moves: "disk_bytes_per_record, ops_per_s on ingest-recover"},
	{name: "store.snapshot.s_p50", class: perLayer, layer: "internal/store (snapshot)", unit: "s", better: "lower", moves: "ops_per_s on ingest-recover (a snapshot stalls the tick it lands on)"},
	{name: "store.snapshot.count", class: perLayer, layer: "internal/store (snapshot)", unit: "count", better: "lower", every: true, moves: "none: fixed by the stated policy"},
	{name: "store.snapshot.shards_encoded", class: perLayer, layer: "internal/store (snapshot)", unit: "count", better: "lower", every: true, moves: "store.snapshot.s_p50"},
	{name: "store.snapshot.shards_linked", class: perLayer, layer: "internal/store (snapshot)", unit: "count", better: "higher", every: true, moves: "store.snapshot.s_p50"},
	{name: "store.close_s", class: perLayer, layer: "internal/store (snapshot)", unit: "s", better: "lower", moves: "none of the bounded metrics: shutdown cost"},
	{name: "store.replay.s", class: perLayer, layer: "internal/store (replay)", unit: "s", better: "lower", moves: "recover_s on ingest-recover"},
	{name: "store.replay.records_per_s", class: perLayer, layer: "internal/store (replay)", unit: "1/s", better: "higher", moves: "recover_s on ingest-recover"},

	// internal/store (feed) + internal/query (watch)
	{name: "store.feed.published", class: perLayer, layer: "internal/store (feed)", unit: "count", better: "lower", every: true, moves: "none: events offered to subscribers"},
	{name: "store.feed.dropped", class: perLayer, layer: "internal/store (feed)", unit: "count", better: "lower", every: true, moves: "fresh_p90_ms, replica_catchup_p50_ms on live-fleet"},
	{name: "store.feed.lagged", class: perLayer, layer: "internal/store (feed)", unit: "count", better: "lower", every: true, moves: "fresh_p90_ms on live-fleet"},
	{name: "store.feed.us_per_event", class: perLayer, layer: "internal/store (feed)", unit: "us", better: "lower", moves: "core.tick_ms_p50 on live-fleet; no change on ingest-recover (no subscriber armed)"},
	{name: "query.watch.events_per_s", class: perLayer, layer: "internal/query (watch)", unit: "1/s", better: "higher", moves: "fresh_p50_ms on live-fleet"},
	{name: "query.watch.reconnects", class: perLayer, layer: "internal/query (watch)", unit: "count", better: "lower", every: true, moves: "fresh_p90_ms on live-fleet"},
	{name: "query.watch.backfill_ms", class: perLayer, layer: "internal/query (watch)", unit: "ms", better: "lower", moves: "setup_s on live-fleet"},
	{name: "query.watch.fresh_p99_ms", class: perLayer, layer: "internal/query (watch)", unit: "ms", better: "lower", moves: "fresh_p90_ms on live-fleet"},

	// internal/replica
	{name: "replica.applied", class: perLayer, layer: "internal/replica", unit: "count", better: "higher", every: true, moves: "replica_catchup_p50_ms on live-fleet"},
	{name: "replica.reconnects", class: perLayer, layer: "internal/replica", unit: "count", better: "lower", every: true, moves: "replica_catchup_p50_ms, slow_read_share on live-fleet"},
	{name: "replica.resyncs", class: perLayer, layer: "internal/replica", unit: "count", better: "lower", every: true, moves: "replica_catchup_p50_ms on live-fleet"},
	{name: "replica.lag_records_p50", class: perLayer, layer: "internal/replica", unit: "count", better: "lower", every: true, moves: "replica_catchup_p50_ms on live-fleet"},
	{name: "replica.catchup_p90_ms", class: perLayer, layer: "internal/replica", unit: "ms", better: "lower", moves: "slow_read_share on live-fleet through gateway routing"},

	// runtime
	{name: "runtime.gc_cycles", class: perLayer, layer: "runtime", unit: "count", better: "lower", every: true, moves: "read_p99_us on read-cold, slow_read_share on live-fleet"},
	{name: "runtime.gc_pause_ms_total", class: perLayer, layer: "runtime", unit: "ms", better: "lower", every: true, moves: "read_p99_us on read-cold, slow_read_share on live-fleet"},
	{name: "runtime.gc_pause_ms_max", class: perLayer, layer: "runtime", unit: "ms", better: "lower", every: true, moves: "slow_read_share on live-fleet"},
	{name: "runtime.alloc_mb_per_s", class: perLayer, layer: "runtime", unit: "MB/s", better: "lower", every: true, moves: "runtime.gc_cycles"},
	{name: "runtime.heap_mb_peak", class: perLayer, layer: "runtime", unit: "MB", better: "lower", every: true, moves: "heap_bytes_per_record"},
	{name: "runtime.goroutines_peak", class: perLayer, layer: "runtime", unit: "count", better: "lower", every: true, moves: "none: leak indicator"},

	// internal/obs and the ladder's own consistency
	{name: "obs.overhead_pct", class: perLayer, layer: "internal/obs", unit: "%", better: "lower", moves: "none: tracing overhead, so the traced numbers can be trusted"},
	{name: "ladder.sum_ratio", class: perLayer, layer: "bench", unit: "ratio", better: "higher", every: true, moves: "none: rungs' self times / client-observed median; warns outside 0.9..1.1"},
}

// readOps are the operation kinds of the three read mixes; each gets
// client.<op>.p50_us / .p99_us rows when its mix contains it.
var readOps = []string{"unavailability", "prices", "stable", "volatile", "fallback", "advise", "summary", "batch", "revalidate"}

func init() {
	for _, op := range readOps {
		for _, q := range []string{"p50_us", "p99_us"} {
			catalog = append(catalog, def{
				name: "client." + op + "." + q, class: perLayer, layer: "pkg/client",
				unit: "us", better: "lower",
				moves: "latency_p50_us / read_p99_us on the workload whose mix has " + op,
			})
		}
	}
}

func lookup(name string) def {
	for _, d := range catalog {
		if d.name == name {
			return d
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the catalog", name))
}

// metricSet accumulates a workload's metrics in insertion order.
type metricSet struct {
	list []Metric
}

// add records a metric from its per-round (or per-repetition) values: the
// reported value is their median, min and max ride along.
func (s *metricSet) add(name string, values []float64, samples int) {
	d := lookup(name)
	lo, hi := minMax(values)
	m := Metric{
		Name: d.name, Layer: d.layer, Unit: d.unit, Better: d.better,
		Value: median(values), Min: lo, Max: hi, Samples: samples, Bound: d.bound,
	}
	for i := range s.list {
		if s.list[i].Name == name {
			s.list[i] = m
			return
		}
	}
	s.list = append(s.list, m)
}

// set records a single count-bounded measurement.
func (s *metricSet) set(name string, v float64, samples int) {
	s.add(name, []float64{v}, samples)
}

// setTail records the want-quantile of an ascending-sorted sample set, or
// the highest quantile the sample supports (ten samples beyond it) with a
// note saying which one it is.
func (s *metricSet) setTail(name string, sorted []float64, want float64) {
	q := supportedTail(len(sorted), want)
	s.set(name, percentile(sorted, q), len(sorted))
	if q != want {
		s.note(name, fmt.Sprintf("p%g: only %d samples", q*100, len(sorted)))
	}
}

func (s *metricSet) note(name, note string) {
	for i := range s.list {
		if s.list[i].Name == name {
			s.list[i].Note = note
		}
	}
}

func (s *metricSet) get(name string) (Metric, bool) {
	for _, m := range s.list {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
