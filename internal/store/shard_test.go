package store

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"spotlight/internal/market"
)

// TestShardFixedCost holds what a market costs before its records do: the
// shard struct, the probe and spike families a market's first probe and
// spike allocate, the outage state its first rejection allocates, the
// probe entry, and the live heap of a store holding every catalog market
// with one price each, per market — shard, index entry, dictionary entry,
// rollup membership and the one-entry price log together.
func TestShardFixedCost(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size > 136 {
		t.Errorf("a shard is %d B, want <= 136", size)
	}
	if size := unsafe.Sizeof(famLog[probeRow]{}); size > 24 {
		t.Errorf("a probe family is %d B, want <= 24", size)
	}
	if size := unsafe.Sizeof(famLog[spikeRow]{}); size > 24 {
		t.Errorf("a spike family is %d B, want <= 24", size)
	}
	if size := unsafe.Sizeof(outageStarts{}); size > 16 {
		t.Errorf("a shard's outage state is %d B, want <= 16", size)
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

// TestCaptureAliasesEveryLog holds the capture to its contract: every log
// of a shard holding every family and outages, the price tail and both
// sealed parts included, is captured as the shard's own backing array,
// and capturing allocates nothing, so no log is copied.
func TestCaptureAliasesEveryLog(t *testing.T) {
	s := New()
	id := persistMarket(0)
	for i := 0; i < 2*chunkLen+3; i++ {
		at := persistBase.Add(time.Duration(i) * time.Minute)
		s.RecordPrice(id, PricePoint{At: at, Price: float64(i)})
		s.AppendProbe(ProbeRecord{At: at, Market: id, Kind: ProbeOnDemand, Rejected: i%3 == 0})
		s.AppendSpike(SpikeEvent{At: at, Market: id, Ratio: 1 + float64(i%2)})
		s.AppendBidSpread(BidSpreadRecord{At: at, Market: id})
		s.AppendRevocation(RevocationRecord{At: at, Market: id})
	}
	sh := s.lookup(id)
	c := sh.capture()
	sealed := sh.prices.sealed
	for _, l := range []struct {
		name           string
		shard, capture unsafe.Pointer
	}{
		{"probes", unsafe.Pointer(unsafe.SliceData(*sh.probes)), unsafe.Pointer(unsafe.SliceData(c.probes))},
		{"spikes", unsafe.Pointer(unsafe.SliceData(*sh.spikes)), unsafe.Pointer(unsafe.SliceData(c.spikes))},
		{"bid spreads", unsafe.Pointer(unsafe.SliceData(*sh.bidSpreads)), unsafe.Pointer(unsafe.SliceData(c.bidSpreads))},
		{"revocations", unsafe.Pointer(unsafe.SliceData(*sh.revocations)), unsafe.Pointer(unsafe.SliceData(c.revocations))},
		{"price tail", unsafe.Pointer(unsafe.SliceData(sh.prices.tail)), unsafe.Pointer(unsafe.SliceData(c.prices.tail))},
		{"price index", unsafe.Pointer(unsafe.SliceData(sealed.index)), unsafe.Pointer(unsafe.SliceData(c.prices.index))},
		{"price arena", unsafe.Pointer(unsafe.SliceData(sealed.arena)), unsafe.Pointer(unsafe.SliceData(c.prices.arena))},
	} {
		if l.shard == nil || l.capture != l.shard {
			t.Errorf("the capture's %s are at %p, the shard's at %p: want the same array", l.name, l.capture, l.shard)
		}
	}
	if n := testing.AllocsPerRun(10, func() { c = sh.capture() }); n != 0 {
		t.Errorf("a capture allocates %v times, want 0", n)
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
