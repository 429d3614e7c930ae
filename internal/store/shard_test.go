package store

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"spotlight/internal/market"
)

// TestShardFixedCost holds what a market costs before its records do: the
// shard struct, the probe family a market's first probe allocates, the
// probe entry, and the live heap of a store holding every catalog market
// with one price each, per market — shard, index entry, dictionary entry,
// rollup membership and the one-entry price log together.
func TestShardFixedCost(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size > 160 {
		t.Errorf("a shard is %d B, want <= 160", size)
	}
	if size := unsafe.Sizeof(famLog[probeRow]{}); size > 24 {
		t.Errorf("a probe family is %d B, want <= 24", size)
	}
	if size := unsafe.Sizeof(stamped[probeRow]{}); size != 48 {
		t.Errorf("a probe entry is %d B, want 48", size)
	}
	ids := market.New().SpotMarkets()
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	without := liveHeap()
	s := New()
	for _, id := range ids {
		s.RecordPrice(id, PricePoint{At: at, Price: 0.1})
	}
	with := liveHeap()
	runtime.KeepAlive(s)
	runtime.KeepAlive(ids)
	perShard := float64(int64(with)-int64(without)) / float64(len(ids))
	t.Logf("%d markets cost %.0f B each (shard struct %d B)", len(ids), perShard, unsafe.Sizeof(shard{}))
	if perShard > 433 {
		t.Errorf("a one-price market costs %.0f B of heap, want <= 433", perShard)
	}
}

// liveHeap collects and returns the bytes of live heap objects; the second
// cycle frees what the first one finalized.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestReadsAddNoMarket holds the find-only lookup: reading, asking the
// generation of, or binding an appender to a market never written —
// catalog or not — adds neither a dictionary entry nor a shard; the first
// write adds one of each.
func TestReadsAddNoMarket(t *testing.T) {
	s := New()
	written := market.SpotID{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductLinux}
	s.RecordPrice(written, PricePoint{At: persistBase, Price: 0.1})
	quiet := market.SpotID{Zone: "us-east-1a", Type: "c3.large", Product: market.ProductLinux}
	offCatalog := market.SpotID{Zone: "mars-north-1a", Type: "q9.huge", Product: "Plan 9"}
	far := persistBase.Add(time.Hour)
	for _, id := range []market.SpotID{quiet, offCatalog} {
		s.Generation(id)
		s.Appender(id)
		s.Prices(id)
		s.PricesIn(id, persistBase, far)
		s.PriceStatsIn(id, persistBase, far)
		s.SpikesFor(id, persistBase, far)
		s.CrossingStatsFor(id, persistBase, far)
		s.RevocationsFor(id, persistBase, far)
		s.BidSpreadsFor(id)
		s.OutagesFor(id, ProbeOnDemand)
		s.OutageOverlap(id, ProbeOnDemand, persistBase, far)
	}
	if n, d := len(s.Markets()), len(s.dicts.markets.ids); n != 1 || d != 1 {
		t.Fatalf("after reads of unwritten markets: %d shards, %d dictionary entries, want 1 and 1", n, d)
	}
	s.Appender(quiet).RecordPrice(PricePoint{At: persistBase, Price: 0.2})
	if n, d := len(s.Markets()), len(s.dicts.markets.ids); n != 2 || d != 2 {
		t.Fatalf("after the first write through an appender: %d shards, %d dictionary entries, want 2 and 2", n, d)
	}
}
