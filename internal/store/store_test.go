package store

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
)

var (
	mktA = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	mktB = market.SpotID{Zone: "sa-east-1a", Type: "m3.large", Product: market.ProductWindows}
	t0   = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
)

func probe(at time.Time, m market.SpotID, kind ProbeKind, rejected bool) ProbeRecord {
	code := ""
	if rejected {
		code = "InsufficientInstanceCapacity"
	}
	return ProbeRecord{
		At: at, Market: m, Kind: kind, Trigger: TriggerSpike,
		TriggerMarket: m, Rejected: rejected, Code: code, Cost: 0.42,
	}
}

// allBidSpreads and allRevocations gather every market's records, market
// by market in Markets order.
func allBidSpreads(s *Store) []BidSpreadRecord {
	var out []BidSpreadRecord
	for _, id := range s.Markets() {
		out = append(out, s.BidSpreadsFor(id)...)
	}
	return out
}

func allRevocations(s *Store) []RevocationRecord {
	var out []RevocationRecord
	for _, id := range s.Markets() {
		out = append(out, s.RevocationsFor(id, time.Unix(0, 0), time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC))...)
	}
	return out
}

func TestAppendAndQueryProbes(t *testing.T) {
	s := New()
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, false))
	s.AppendProbe(probe(t0.Add(time.Minute), mktB, ProbeOnDemand, true))
	if got := s.ProbeCount(); got != 2 {
		t.Fatalf("ProbeCount = %d, want 2", got)
	}
	all := s.Probes()
	if len(all) != 2 || all[0].Market != mktA {
		t.Errorf("Probes() = %+v", all)
	}
	rejected := s.ProbesWhere(func(r ProbeRecord) bool { return r.Rejected })
	if len(rejected) != 1 || rejected[0].Market != mktB {
		t.Errorf("ProbesWhere(rejected) = %+v", rejected)
	}
}

func TestProbesReturnsCopy(t *testing.T) {
	s := New()
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, false))
	got := s.Probes()
	got[0].Market = mktB
	if s.Probes()[0].Market != mktA {
		t.Error("mutating the returned slice leaked into the store")
	}
}

func TestOutageDerivation(t *testing.T) {
	s := New()
	// available -> rejected (outage opens) -> rejected (stays open) ->
	// fulfilled (outage closes) -> rejected (second outage opens).
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, false))
	s.AppendProbe(probe(t0.Add(10*time.Minute), mktA, ProbeOnDemand, true))
	s.AppendProbe(probe(t0.Add(15*time.Minute), mktA, ProbeOnDemand, true))
	s.AppendProbe(probe(t0.Add(30*time.Minute), mktA, ProbeOnDemand, false))
	s.AppendProbe(probe(t0.Add(60*time.Minute), mktA, ProbeOnDemand, true))

	outs := s.OutagesFor(mktA, ProbeOnDemand)
	if len(outs) != 2 {
		t.Fatalf("outages = %d, want 2: %+v", len(outs), outs)
	}
	first := outs[0]
	if !first.Start.Equal(t0.Add(10*time.Minute)) || !first.End.Equal(t0.Add(30*time.Minute)) {
		t.Errorf("first outage = %+v", first)
	}
	second := outs[1]
	if !second.End.IsZero() {
		t.Errorf("second outage should be ongoing, got end %v", second.End)
	}
}

func TestOutageSeparatesKinds(t *testing.T) {
	s := New()
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, true))
	s.AppendProbe(probe(t0, mktA, ProbeSpot, true))
	if got := len(s.OutagesFor(mktA, ProbeOnDemand)); got != 1 {
		t.Errorf("od outages = %d, want 1", got)
	}
	if got := len(s.OutagesFor(mktA, ProbeSpot)); got != 1 {
		t.Errorf("spot outages = %d, want 1", got)
	}
	if got := len(s.OutagesFor(mktB, ProbeOnDemand)); got != 0 {
		t.Errorf("unrelated market outages = %d, want 0", got)
	}
}

func TestSpikes(t *testing.T) {
	s := New()
	s.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 1.5, Probed: true})
	s.AppendSpike(SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 3})
	s.AppendSpike(SpikeEvent{At: t0, Market: mktB, Ratio: 2})
	if got := len(s.Spikes()); got != 3 {
		t.Fatalf("Spikes = %d, want 3", got)
	}
	got := s.SpikesFor(mktA, t0, t0.Add(30*time.Minute))
	if len(got) != 1 || got[0].Ratio != 1.5 {
		t.Errorf("SpikesFor window = %+v", got)
	}
}

func TestBidSpreads(t *testing.T) {
	s := New()
	s.AppendBidSpread(BidSpreadRecord{At: t0, Market: mktA, Published: 0.1, Intrinsic: 0.15, Attempts: 3})
	got := s.BidSpreadsFor(mktA)
	if len(got) != 1 || got[0].Intrinsic != 0.15 {
		t.Errorf("BidSpreadsFor = %+v", got)
	}
}

func TestPriceSeries(t *testing.T) {
	s := New()
	s.RecordPrice(mktA, PricePoint{At: t0, Price: 0.1})
	s.RecordPrice(mktA, PricePoint{At: t0.Add(time.Minute), Price: 0.2})
	s.RecordPrice(mktB, PricePoint{At: t0, Price: 0.3})
	if got := s.Prices(mktA); len(got) != 2 || got[1].Price != 0.2 {
		t.Errorf("Prices(mktA) = %+v", got)
	}
	if got := s.Prices(market.SpotID{Zone: "none", Type: "none", Product: "none"}); len(got) != 0 {
		t.Errorf("Prices(unknown) = %+v, want empty", got)
	}
	ids := s.PricedMarkets()
	if len(ids) != 2 {
		t.Errorf("PricedMarkets = %v, want 2 markets", ids)
	}
}

func TestAppenderLazyShard(t *testing.T) {
	s := New()
	app := s.Appender(mktA)
	// Binding alone must leave no trace: Markets() promises "at least one
	// record".
	if got := len(s.Markets()); got != 0 {
		t.Fatalf("Markets after bare bind = %d, want 0", got)
	}
	app.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	if got := s.Markets(); len(got) != 1 || got[0] != mktA {
		t.Fatalf("Markets after first write = %v, want [%v]", got, mktA)
	}
	if got := s.SpikesFor(mktA, t0, t0); len(got) != 1 || got[0].Ratio != 2 {
		t.Fatalf("SpikesFor after first write = %+v", got)
	}
	// Writes through the handle and through the store land in one shard.
	s.AppendSpike(SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 0.5})
	if got := len(s.SpikesFor(mktA, t0, t0.Add(time.Hour))); got != 2 {
		t.Fatalf("SpikesFor = %d, want 2", got)
	}
}

func TestConcurrentAppends(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine writes the same markets at one instant, so any
			// interleaving keeps each market in time order.
			for i := 0; i < 200; i++ {
				s.AppendProbe(probe(t0, mktA, ProbeOnDemand, i%2 == 0))
				s.RecordPrice(mktB, PricePoint{At: t0, Price: float64(i)})
				s.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 1})
			}
		}(g)
	}
	wg.Wait()
	if got := s.ProbeCount(); got != 1600 {
		t.Errorf("ProbeCount = %d, want 1600", got)
	}
	if got := len(s.Prices(mktB)); got != 1600 {
		t.Errorf("prices = %d, want 1600", got)
	}
}

func TestWriteProbesCSV(t *testing.T) {
	s := New()
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, true))
	var buf bytes.Buffer
	if err := s.WriteProbesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at,market,kind") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "InsufficientInstanceCapacity") {
		t.Errorf("csv row missing code: %q", lines[1])
	}
}

func TestWritePricesCSV(t *testing.T) {
	s := New()
	s.RecordPrice(mktA, PricePoint{At: t0, Price: 0.42})
	var buf bytes.Buffer
	if err := s.WritePricesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.42") {
		t.Errorf("prices csv missing sample: %q", buf.String())
	}
}

// TestDumpRoundTrip: a store's dump, loaded into a fresh store, holds
// every record family.
func TestDumpRoundTrip(t *testing.T) {
	s := New()
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, true))
	s.AppendProbe(probe(t0.Add(10*time.Minute), mktA, ProbeOnDemand, false))
	s.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	s.RecordPrice(mktB, PricePoint{At: t0, Price: 0.5})
	s.AppendBidSpread(BidSpreadRecord{At: t0, Market: mktA, Published: 0.1, Intrinsic: 0.12, Attempts: 2})
	s.AppendRevocation(RevocationRecord{At: t0, Market: mktA, Bid: 0.42, Held: time.Hour})

	loaded, err := loadDump([]byte(dumpOf(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ProbeCount() != 2 || len(loaded.Spikes()) != 1 ||
		len(allBidSpreads(loaded)) != 1 || len(allRevocations(loaded)) != 1 {
		t.Errorf("loaded counts wrong: %d probes %d spikes", loaded.ProbeCount(), len(loaded.Spikes()))
	}
	if got := loaded.Prices(mktB); len(got) != 1 || got[0].Price != 0.5 {
		t.Errorf("loaded prices = %+v", got)
	}
}

// TestDumpLoadRebuildsOutages: a loaded dump rebuilds the derived outage
// from the probe log, and dumps again to the same bytes.
func TestDumpLoadRebuildsOutages(t *testing.T) {
	s := New()
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, true))
	s.AppendProbe(probe(t0.Add(10*time.Minute), mktA, ProbeOnDemand, false))

	dump := dumpOf(t, s)
	loaded, err := loadDump([]byte(dump))
	if err != nil {
		t.Fatal(err)
	}
	outs := loaded.OutagesFor(mktA, ProbeOnDemand)
	if len(outs) != 1 || outs[0].End.IsZero() {
		t.Fatalf("rebuilt outages = %+v", outs)
	}
	if got := outs[0].End.Sub(outs[0].Start); got != 10*time.Minute {
		t.Errorf("rebuilt outage duration = %v, want 10m", got)
	}
	if again := dumpOf(t, loaded); again != dump {
		t.Error("the loaded store's dump differs from the dump it was loaded from")
	}
}

func TestWriteSpikesAndOutagesCSV(t *testing.T) {
	s := New()
	s.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 2.5, Price: 1.05, Probed: true})
	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, true))
	var spikes, outages bytes.Buffer
	if err := s.WriteSpikesCSV(&spikes); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spikes.String(), "2.5") || !strings.Contains(spikes.String(), "true") {
		t.Errorf("spikes csv = %q", spikes.String())
	}
	if err := s.WriteOutagesCSV(&outages); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outages.String(), "on-demand") {
		t.Errorf("outages csv = %q", outages.String())
	}
}

func TestKindAndTriggerStrings(t *testing.T) {
	if ProbeOnDemand.String() != "on-demand" || ProbeSpot.String() != "spot" {
		t.Error("ProbeKind strings wrong")
	}
	if ProbeKind(0).String() != "unknown" {
		t.Error("zero ProbeKind should be unknown")
	}
	triggers := map[Trigger]string{
		TriggerSpike:            "spike",
		TriggerRelatedSameZone:  "related-same-zone",
		TriggerRelatedOtherZone: "related-other-zone",
		TriggerRecheck:          "recheck",
		TriggerPeriodicSpot:     "periodic-spot",
		TriggerCross:            "cross",
		TriggerBidSpread:        "bid-spread",
		TriggerRevocation:       "revocation",
		Trigger(0):              "unknown",
	}
	for tr, want := range triggers {
		if got := tr.String(); got != want {
			t.Errorf("Trigger(%d).String() = %q, want %q", tr, got, want)
		}
	}
}
