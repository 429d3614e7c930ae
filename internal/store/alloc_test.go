package store

import (
	"testing"
	"time"
)

// The write path's allocation ceilings. A record, event or round delta that
// escapes — a call through a generic dictionary or an interface, an event
// built in a local and then copied — costs an allocation per record; these
// hold the append round to a constant per round and recovery to a constant
// per market and column.

func TestAppendAllocationCeilings(t *testing.T) {
	s := New()
	id, bound := persistMarket(0), persistMarket(1)
	app := s.Appender(bound)
	at := persistBase
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Store.AppendProbe", func() {
			at = at.Add(time.Second)
			s.AppendProbe(ProbeRecord{At: at, Market: id, Kind: ProbeSpot, Trigger: TriggerPeriodicSpot, TriggerMarket: id, Code: "ok", Cost: 0.1})
		}},
		{"Appender.AppendSpike", func() {
			at = at.Add(time.Second)
			app.AppendSpike(SpikeEvent{At: at, Market: bound, Price: 0.3, Ratio: 1.2})
		}},
		{"Appender.RecordPrice", func() {
			at = at.Add(time.Second)
			app.RecordPrice(PricePoint{At: at, Price: 0.3})
		}},
	} {
		if got := testing.AllocsPerRun(2000, c.call); got >= 1 {
			t.Errorf("%s: %v allocations per call, want under 1", c.name, got)
		}
	}
}

// TestRoundAllocationsWithASubscriber: with a subscriber, a round copies its
// records and builds their events once per round, not once per record.
func TestRoundAllocationsWithASubscriber(t *testing.T) {
	const perRound = 4
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()
	buf := make([]Event, 0, 256)
	id := persistMarket(0)
	app := s.Appender(id)
	batch := make([]ProbeRecord, 64)
	for i := range batch {
		batch[i] = ProbeRecord{At: persistBase, Market: id, Kind: ProbeOnDemand, Trigger: TriggerSpike, Cost: 0.1}
	}
	got := testing.AllocsPerRun(200, func() {
		app.AppendProbes(batch)
		sub.Next(buf)
	})
	if got > perRound {
		t.Fatalf("a %d-record round allocates %v times, want at most %d", len(batch), got, perRound)
	}
}

// TestRecoveryAllocationsPerMarket: recovering four times the records
// across the same markets allocates at most a few times more per market —
// columns are reserved exactly, and nothing is allocated per frame.
func TestRecoveryAllocationsPerMarket(t *testing.T) {
	const markets, perMarket = 4, 3
	allocs := func(n int) float64 {
		dir := t.TempDir()
		s, err := Open(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for m := range markets {
			id := persistMarket(m)
			probes := make([]ProbeRecord, n)
			spikes := make([]SpikeEvent, n)
			bids := make([]BidSpreadRecord, n)
			revs := make([]RevocationRecord, n)
			prices := make([]PricePoint, n)
			for i := range n {
				at := persistBase.Add(time.Duration(i) * time.Minute)
				probes[i] = ProbeRecord{At: at, Market: id, Kind: ProbeSpot, Code: "ok", Cost: 0.1}
				spikes[i] = SpikeEvent{At: at, Market: id, Price: 0.2, Ratio: 0.5}
				bids[i] = BidSpreadRecord{At: at, Market: id, Published: 0.2, Intrinsic: 0.1, Attempts: 3}
				revs[i] = RevocationRecord{At: at, Market: id, Bid: 0.3, Held: time.Hour}
				prices[i] = PricePoint{At: at, Price: 0.2}
			}
			s.AppendProbes(probes)
			s.AppendSpikes(spikes)
			s.AppendBidSpreads(bids)
			s.AppendRevocations(revs)
			s.RecordPrices(id, prices)
			// One market a flush: each market is one run of the log at
			// either size, so only the record counts differ.
			if err := s.Persister().Flush(); err != nil {
				t.Fatal(err)
			}
		}
		s.Persister().Abandon()
		return testing.AllocsPerRun(2, func() {
			re, err := Open(dir, PersistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			re.Persister().Abandon()
		})
	}
	small, large := allocs(150), allocs(600)
	t.Logf("recovery: %v allocations at 150 records a family and market, %v at 600", small, large)
	if large-small > perMarket*markets {
		t.Fatalf("recovering 4x the records allocates %v times, not %v: more than %d more per market", large, small, perMarket)
	}
}
