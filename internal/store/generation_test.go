package store

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
)

// TestGenerationCountsEveryRecordKind: every append kind bumps exactly
// its market's generation by one.
func TestGenerationCountsEveryRecordKind(t *testing.T) {
	s := New()
	if g := s.Generation(mktA); g != 0 {
		t.Fatalf("generation of absent market = %d, want 0", g)
	}

	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, false))
	s.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	s.AppendBidSpread(BidSpreadRecord{At: t0, Market: mktA, Published: 0.1, Intrinsic: 0.2})
	s.AppendRevocation(RevocationRecord{At: t0, Market: mktA, Bid: 0.3, Held: time.Hour})
	s.RecordPrice(mktA, PricePoint{At: t0, Price: 0.1})
	if g := s.Generation(mktA); g != 5 {
		t.Errorf("generation after 5 mixed appends = %d, want 5", g)
	}
	if g := s.Generation(mktB); g != 0 {
		t.Errorf("untouched market generation = %d, want 0", g)
	}
}

// mixedInput is one interleaved multi-market input per record family.
// Costs and prices are dyadic, so every float sum is exact and the stores
// must agree bit for bit however the appends were batched.
type mixedInput struct {
	probes  []ProbeRecord
	spikes  []SpikeEvent
	spreads []BidSpreadRecord
	revs    []RevocationRecord
	prices  []PricePoint // prices[i] belongs to markets[i%len(markets)]
	markets []market.SpotID
}

func newMixedInput(markets []market.SpotID, n int) mixedInput {
	in := mixedInput{markets: markets}
	for i := 0; i < n; i++ {
		m := markets[i%len(markets)]
		at := t0.Add(time.Duration(i) * time.Minute)
		// Rejection runs open and close outages as they would live.
		r := probe(at, m, ProbeOnDemand, i%8 < 3)
		r.Cost = 0.25
		in.probes = append(in.probes, r)
		in.spikes = append(in.spikes, SpikeEvent{At: at, Market: m, Price: 0.5 + float64(i), Ratio: 0.5 + float64(i%3), Probed: i%4 == 0})
		in.spreads = append(in.spreads, BidSpreadRecord{At: at, Market: m, Published: 0.5, Intrinsic: 0.25, Attempts: i%5 + 1})
		in.revs = append(in.revs, RevocationRecord{At: at, Market: m, Bid: 1, Held: time.Duration(i+1) * time.Minute})
		in.prices = append(in.prices, PricePoint{At: at, Price: 0.125 * float64(i+1)})
	}
	return in
}

// TestAppendProbesMatchesSingles: every record enters a shard through one
// append round, so for each of the five families the three entry points —
// Store single-record, Store batch, and a bound Appender — must be
// observationally identical for an interleaved multi-market input: same
// dump, aggregates, rollups and generations (assertStoresEqual), same
// windowed reads, same WAL bytes on disk, and the same feed events.
func TestAppendProbesMatchesSingles(t *testing.T) {
	in := newMixedInput([]market.SpotID{mktA, mktB, mktA}, 40)
	priceMarket := func(i int) market.SpotID { return in.markets[i%len(in.markets)] }
	families := []struct {
		name                    string
		single, batch, appender func(*Store)
	}{
		{"probes",
			func(s *Store) {
				for _, r := range in.probes {
					s.AppendProbe(r)
				}
			},
			func(s *Store) { s.AppendProbes(in.probes) },
			func(s *Store) {
				appA, appB := s.Appender(mktA), s.Appender(mktB)
				var toB []ProbeRecord
				for _, r := range in.probes {
					if r.Market == mktA {
						appA.AppendProbes([]ProbeRecord{r})
					} else {
						toB = append(toB, r)
					}
				}
				appB.AppendProbes(toB)
			}},
		{"spikes",
			func(s *Store) {
				for _, e := range in.spikes {
					s.AppendSpike(e)
				}
			},
			func(s *Store) { s.AppendSpikes(in.spikes) },
			func(s *Store) {
				for _, e := range in.spikes {
					s.Appender(e.Market).AppendSpike(e)
				}
			}},
		{"bidSpreads",
			func(s *Store) {
				for _, r := range in.spreads {
					s.AppendBidSpread(r)
				}
			},
			func(s *Store) { s.AppendBidSpreads(in.spreads) },
			func(s *Store) {
				for _, r := range in.spreads {
					s.Appender(r.Market).AppendBidSpread(r)
				}
			}},
		{"revocations",
			func(s *Store) {
				for _, r := range in.revs {
					s.AppendRevocation(r)
				}
			},
			func(s *Store) { s.AppendRevocations(in.revs) },
			func(s *Store) {
				for _, r := range in.revs {
					s.Appender(r.Market).AppendRevocation(r)
				}
			}},
		{"prices",
			func(s *Store) {
				for i, p := range in.prices {
					s.RecordPrice(priceMarket(i), p)
				}
			},
			func(s *Store) {
				series := make(map[market.SpotID][]PricePoint)
				for i, p := range in.prices {
					series[priceMarket(i)] = append(series[priceMarket(i)], p)
				}
				s.RecordPrices(mktA, series[mktA])
				s.RecordPrices(mktB, series[mktB])
			},
			func(s *Store) {
				for i, p := range in.prices {
					s.Appender(priceMarket(i)).RecordPrice(p)
				}
			}},
	}

	// fed is what one way of appending left behind.
	type fed struct {
		s      *Store
		wal    map[string][]byte
		events map[string][]Event
	}
	feed := func(t *testing.T, fill func(*Store)) fed {
		dir := t.TempDir()
		s, err := Open(dir, PersistOptions{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { s.Persister().Close() })
		sub := s.Feed().Subscribe(SubscribeOptions{})
		defer sub.Close()
		fill(s)
		if err := s.Persister().Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		out := fed{s: s, wal: make(map[string][]byte), events: make(map[string][]Event)}
		// Which markets' rounds sit next to each other in the one log
		// depends on the batching; each market's own frames must not.
		r := newRecovery(New())
		for _, file := range logFiles(t, dir) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := r.scanLog(file, data); err != nil || n != len(data) {
				t.Fatalf("scan %s: valid prefix %d of %d, %v", file, n, len(data), err)
			}
		}
		for _, task := range r.sorted() {
			for _, run := range task.runs {
				out.wal[task.sh.id().String()] = append(out.wal[task.sh.id().String()], run.frames...)
			}
		}
		if len(out.wal) == 0 {
			t.Fatal("the flush left no log frames")
		}
		// Cross-market publish order and a batch's probe-then-outage event
		// order legitimately depend on the batching; the per-(market, kind)
		// sequences must not. Seq and Gen are the feed's own stamps.
		for _, ev := range drain(sub) {
			key := ev.Market.String() + " " + ev.Kind.String()
			ev.Seq, ev.Gen = 0, 0
			out.events[key] = append(out.events[key], ev)
		}
		return out
	}

	from, to := t0.Add(5*time.Minute), t0.Add(25*time.Minute)
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			want := feed(t, fam.single)
			if len(want.events) == 0 {
				t.Fatal("reference store published no events")
			}
			for name, fill := range map[string]func(*Store){"batch": fam.batch, "appender": fam.appender} {
				got := feed(t, fill)
				assertStoresEqual(t, got.s, want.s)
				if !reflect.DeepEqual(got.s.ProbesInWindow(from, to, nil), want.s.ProbesInWindow(from, to, nil)) {
					t.Errorf("%s: windowed probes differ from single appends", name)
				}
				if !reflect.DeepEqual(got.wal, want.wal) {
					t.Errorf("%s: WAL bytes differ from single appends", name)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("%s: feed events differ from single appends", name)
				}
			}
		})
	}
}

// TestBatchAppendOrderIsDeterministic: the tests' multi-market batch
// (batch_test.go) is applied in order of first appearance, so two stores
// fed the same batch publish the same feed sequence (and fold their rollup
// float sums in the same order), which the differential tests rely on.
// Grouping through a Go map's iteration order fails this with
// overwhelming probability at 48 markets.
func TestBatchAppendOrderIsDeterministic(t *testing.T) {
	markets := make([]market.SpotID, 48)
	for i := range markets {
		markets[i] = market.SpotID{
			Zone:    market.Zone(fmt.Sprintf("us-east-1%c", 'a'+i%6)),
			Type:    market.InstanceType(fmt.Sprintf("m%d.large", i/6)),
			Product: market.ProductLinux,
		}
	}
	in := newMixedInput(markets, 3*len(markets))
	run := func() []Event {
		s := New()
		sub := s.Feed().Subscribe(SubscribeOptions{})
		defer sub.Close()
		s.AppendProbes(in.probes)
		s.AppendSpikes(in.spikes)
		s.AppendBidSpreads(in.spreads)
		s.AppendRevocations(in.revs)
		return drain(sub)
	}
	first, second := run(), run()
	if len(first) < 4*len(in.probes) {
		t.Fatalf("got %d events, want at least %d", len(first), 4*len(in.probes))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two stores fed the same batch published different event sequences")
	}
	// First appearance, concretely: the probe family's rounds walk the
	// markets in input order.
	var order []market.SpotID
	for _, ev := range first {
		if ev.Kind == EventProbe && (len(order) == 0 || order[len(order)-1] != ev.Market) {
			order = append(order, ev.Market)
		}
	}
	if !reflect.DeepEqual(order, markets) {
		t.Errorf("probe rounds visited markets in order %v, want input order", order)
	}
}

// TestAppendProbesEdgeCases: empty and single-record batches through an
// Appender; an empty one creates no shard.
func TestAppendProbesEdgeCases(t *testing.T) {
	s := New()
	app := s.Appender(mktA)
	app.AppendProbes(nil)
	if got := s.ProbeCount(); got != 0 || len(s.Markets()) != 0 {
		t.Errorf("empty batch appended %d probes into %d markets", got, len(s.Markets()))
	}
	app.AppendProbes([]ProbeRecord{probe(t0, mktA, ProbeSpot, false)})
	if got := s.ProbeCount(); got != 1 {
		t.Errorf("singleton batch appended %d probes, want 1", got)
	}
}

// TestAppenderAppendProbes: the bound-market batch path, concurrently
// with other markets (exercised under -race).
func TestAppenderAppendProbes(t *testing.T) {
	s := New()
	appA, appB := s.Appender(mktA), s.Appender(mktB)
	var wg sync.WaitGroup
	for g, app := range map[int]*Appender{0: appA, 1: appB} {
		id := []market.SpotID{mktA, mktB}[g]
		wg.Add(1)
		go func(g int, app *Appender) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				batch := []ProbeRecord{
					probe(t0.Add(time.Duration(i)*time.Minute), id, ProbeOnDemand, false),
					probe(t0.Add(time.Duration(i)*time.Minute+30*time.Second), id, ProbeSpot, false),
				}
				app.AppendProbes(batch)
			}
		}(g, app)
	}
	wg.Wait()
	if got := s.ProbeCount(); got != 40 {
		t.Errorf("probe count = %d, want 40", got)
	}
	if g := s.Generation(mktA); g != 20 {
		t.Errorf("generation of mktA = %d, want 20", g)
	}
}
