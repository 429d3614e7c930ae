package store

import (
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
)

func metricsTestMarket(t *testing.T) market.SpotID {
	t.Helper()
	return market.SpotID{Zone: "us-east-1a", Type: "m4.large", Product: "Linux/UNIX"}
}

func TestStoreMetricsCountAppends(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	s.EnableMetrics(reg)
	id := metricsTestMarket(t)
	now := time.Now().UTC()
	sub := s.Feed().Subscribe(SubscribeOptions{}) // reads nothing until the scrape below
	defer sub.Close()
	s.AppendProbes([]ProbeRecord{
		{At: now, Market: id, Kind: ProbeOnDemand},
		{At: now.Add(time.Second), Market: id, Kind: ProbeSpot},
	})
	s.AppendSpike(SpikeEvent{At: now, Market: id, Price: 1, Ratio: 1.2})

	if got := reg.Counter("spotlight_store_append_records_total", "").Value(); got != 3 {
		t.Fatalf("append_records_total = %d, want 3", got)
	}
	if got := reg.Counter("spotlight_store_append_batches_total", "").Value(); got != 2 {
		t.Fatalf("append_batches_total = %d, want 2", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"spotlight_store_generation 3",
		"spotlight_store_markets 1",
		"spotlight_feed_dropped_total 0",
		"spotlight_feed_backlog_events 3",
		"spotlight_store_wal_flush_seconds_count 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	if drain(sub); s.Feed().Backlog() != 0 {
		t.Fatalf("backlog = %d after the subscriber caught up, want 0", s.Feed().Backlog())
	}
}

func TestStoreMetricsDurablePath(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.EnableMetrics(reg)
	p := s.Persister()
	defer p.Close()

	id := metricsTestMarket(t)
	now := time.Now().UTC()
	s.AppendProbe(ProbeRecord{At: now, Market: id, Kind: ProbeOnDemand})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("spotlight_store_wal_flushes_total", "").Value(); got != 1 {
		t.Fatalf("wal_flushes_total = %d, want 1", got)
	}
	if got := reg.Counter("spotlight_store_wal_flushed_bytes_total", "").Value(); got == 0 {
		t.Fatalf("wal_flushed_bytes_total = 0, want > 0")
	}
	if got := reg.Histogram("spotlight_store_wal_flush_seconds", "").Count(); got != 1 {
		t.Fatalf("wal_flush_seconds count = %d, want 1", got)
	}

	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("spotlight_store_snapshots_total", "").Value(); got != 1 {
		t.Fatalf("snapshots_total = %d, want 1", got)
	}
	if got := reg.Counter("spotlight_store_snapshot_shards_encoded_total", "").Value(); got != 1 {
		t.Fatalf("snapshot_shards_encoded_total = %d, want 1", got)
	}
	// Every snapshot writes every shard's section, changed or not.
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("spotlight_store_snapshot_shards_encoded_total", "").Value(); got != 2 {
		t.Fatalf("snapshot_shards_encoded_total = %d after a second snapshot, want 2", got)
	}
	if got := reg.Histogram("spotlight_store_snapshot_seconds", "").Count(); got != 2 {
		t.Fatalf("snapshot_seconds count = %d, want 2", got)
	}

	if err := p.SaveCursor([]byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("spotlight_store_cursor_saves_total", "").Value(); got != 1 {
		t.Fatalf("cursor_saves_total = %d, want 1", got)
	}
}
