package store

import (
	"time"

	"spotlight/internal/obs"
)

// storeMetrics holds the store's hot-path instruments. Every Store owns
// one (allocated in New, shared into each shard at wiring time) whose
// fields stay nil until EnableMetrics arms them — a nil *obs.Counter is
// a no-op, so the disabled cost on the append path is one predictable
// branch per instrument. The fields are written exactly once, before
// concurrent appends begin (daemons enable metrics before the study
// starts ticking), and read-only afterwards.
type storeMetrics struct {
	appendBatches   *obs.Counter
	appendRecords   *obs.Counter
	appendRefused   *obs.Counter
	walFlushes      *obs.Counter
	walFlushSeconds *obs.Histogram
	walFlushedBytes *obs.Counter
	snapshots       *obs.Counter
	snapshotSeconds *obs.Histogram
	snapshotEncoded *obs.Counter
	cursorSaves     *obs.Counter
}

// EnableMetrics registers the store's series in r and arms the append,
// WAL, and snapshot instruments. Call once, before the store is shared
// with concurrent appenders (the daemons enable metrics right after
// building the store); calling with a nil registry leaves the store
// uninstrumented. Values another layer already counts — feed stats, the
// global generation, replay cost — register as scrape-time collectors
// and never touch an append.
func (s *Store) EnableMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	m := s.metrics
	m.appendBatches = r.Counter("spotlight_store_append_batches_total",
		"Append batches folded into shards (one shard lock round each).")
	m.appendRecords = r.Counter("spotlight_store_append_records_total",
		"Records of any kind appended to the store.")
	m.appendRefused = r.Counter("spotlight_store_append_refused_total",
		"Append rounds refused whole because a record went back in time within its (market, family) series.")
	m.walFlushes = r.Counter("spotlight_store_wal_flushes_total",
		"Store-log flushes that wrote bytes: one write of the pending buffer, every market's frames since the last one.")
	m.walFlushSeconds = r.HistogramBuckets("spotlight_store_wal_flush_seconds",
		"Store-log flush latency (pending buffer to the active log file, rotation included).", obs.IOBuckets)
	m.walFlushedBytes = r.Counter("spotlight_store_wal_flushed_bytes_total",
		"Bytes moved from the store log's pending buffer to its files.")
	m.snapshots = r.Counter("spotlight_store_snapshots_total",
		"Whole-store snapshots published.")
	m.snapshotSeconds = r.Histogram("spotlight_store_snapshot_seconds",
		"Snapshot duration: consistent cut, encode, publish, compaction.")
	m.snapshotEncoded = r.Counter("spotlight_store_snapshot_shards_encoded_total",
		"Shard sections encoded into snapshot files.")
	m.cursorSaves = r.Counter("spotlight_store_cursor_saves_total",
		"Replication cursor blobs persisted via SaveCursor.")

	r.GaugeFunc("spotlight_store_generation",
		"Global append generation (records ever appended, any market).",
		func() float64 { return float64(s.gen.Load()) })
	r.GaugeFunc("spotlight_store_markets",
		"Markets with at least one record (shard count).",
		func() float64 { return float64(len(s.shardList())) })
	r.CounterFunc("spotlight_feed_published_total",
		"Change-feed events ever assigned a sequence number.",
		func() float64 { return float64(s.feed.Stats().Published) })
	r.CounterFunc("spotlight_feed_dropped_total",
		"Change-feed events the ring overwrote before a subscription read them.",
		func() float64 { return float64(s.feed.Stats().Dropped) })
	r.CounterFunc("spotlight_feed_lagged_total",
		"Subscriptions ended by the lagged marker (the ring no longer covered their cursor).",
		func() float64 { return float64(s.feed.Stats().Lagged) })
	r.GaugeFunc("spotlight_feed_subscribers",
		"Currently registered change-feed subscriptions.",
		func() float64 { return float64(s.feed.Stats().Subscribers) })
	r.GaugeFunc("spotlight_feed_backlog_events",
		"Events the slowest registered subscription has yet to read (newest sequence minus its cursor).",
		func() float64 { return float64(s.feed.Backlog()) })
	r.GaugeFunc("spotlight_store_replay_seconds",
		"Duration of the recovery replay that built this store (0 for in-memory).",
		func() float64 {
			if p := s.Persister(); p != nil {
				return p.replayDur.Seconds()
			}
			return 0
		})
	r.GaugeFunc("spotlight_store_recovered_records",
		"Records recovered from snapshot+WAL at open (0 for in-memory).",
		func() float64 {
			if p := s.Persister(); p != nil {
				return float64(p.recoveredRecords)
			}
			return 0
		})
}

// observeFlush records one WAL flush of n bytes taking d. m is never nil
// (stores allocate it at construction), its fields are nil until
// EnableMetrics.
func (m *storeMetrics) observeFlush(n int, d time.Duration) {
	m.walFlushes.Inc()
	m.walFlushSeconds.Observe(d)
	m.walFlushedBytes.Add(uint64(n))
}
