package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"spotlight/internal/cloud"
	"spotlight/internal/core"
	"spotlight/internal/market"
	"spotlight/internal/store"
)

// TestStudyDigestPinned holds three 1-day studies to figures recorded
// once and kept across commits: the SHA-256 of the study's dump (WriteDump:
// the store's image as a follow stream), the budget controller's spend and
// the service's counters.
// TestDeterministicStudies compares two runs of one binary, so it cannot
// see a change that reorders the random draws; this test can. The
// constants change only together with a model change that CHANGES.md
// states — a pure speed-up must leave every one of them as it is.
func TestStudyDigestPinned(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		regions []market.Region
		sha     string
		spent   float64
		stats   core.Counters
	}{
		{
			name:  "seed42-all",
			seed:  42,
			sha:   "88ef183c64591c43d22313d40ff217828f0949377f4782cc83579b9d3bc661c1",
			spent: 6723.450317300008,
			stats: core.Counters{SpikesSeen: 2419, SpikesSampled: 2372, ODProbes: 4673, ODRejections: 1536,
				SpotProbes: 3371, SpotRejections: 29, BidSpreadRuns: 4, Revocations: 31},
		},
		{
			name:  "seed7-all",
			seed:  7,
			sha:   "e1b3f9f7ee3db6d1064426f940410d1101015b80d0b636355d8489e7e0466cf3",
			spent: 7829.536637999974,
			stats: core.Counters{SpikesSeen: 2614, SpikesSampled: 2571, ODProbes: 5412, ODRejections: 1772,
				SpotProbes: 3730, SpotRejections: 48, BidSpreadRuns: 4, Revocations: 25},
		},
		{
			name:    "seed42-us-east-1+us-west-2",
			seed:    42,
			regions: []market.Region{"us-east-1", "us-west-2"},
			sha:     "2b44f4f88d4d345bdecf92925eac85f53d53a8dbf501845ae11677abe6a941a0",
			spent:   3718.962560000023,
			stats: core.Counters{SpikesSeen: 606, SpikesSampled: 597, ODProbes: 2883, ODRejections: 814,
				SpotProbes: 3764, SpotRejections: 113, BidSpreadRuns: 4, Revocations: 16},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Run(Config{Seed: tc.seed, Days: 1, Regions: tc.regions})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := st.WriteDump(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
				t.Errorf("WriteDump SHA-256 = %s, want %s", got, tc.sha)
			}
			if got := st.Svc.Spent(); got != tc.spent {
				t.Errorf("Spent() = %v, want %v", got, tc.spent)
			}
			if got := st.Svc.Stats(); got != tc.stats {
				t.Errorf("Stats() = %#v, want %#v", got, tc.stats)
			}
		})
	}
}

// TestStudyHeapPerRecord holds the live heap of the store a seeded study
// leaves, per record, under a ceiling: the heap with the store reachable
// minus the heap once it is dropped, so the simulator and the service do
// not count. The 1-day study at the default 5-minute tick is the live
// fleet's leader, where every catalog market holds a day of prices and
// little else, so the per-market fixed cost weighs most. Both measure
// 31.8 and 20.9 B per record once a market's prices are sealed into
// encoded 16-price chunks (35.8 and 26.7 B as 16-byte raw entries); 41.3
// and 31.2 B once a probe is one 48-byte row holding a shape index; 50.2 and 36.7 B with eleven probe columns, once the store
// folds only the region aggregates a reader reads; 53.3 and 38.1 B with
// per-market running aggregates beside them; 79.1 and 45.4 B with a
// 1,096-byte shard per market in a map keyed by market ID. The 3-day study measured 58.0 B
// before pointer-free probe columns and quarter-step column growth. Each
// ceiling sits a tenth over its measurement, rounded up to a whole byte.
func TestStudyHeapPerRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		days    int
		ceiling float64
	}{
		{"1-day", 1, 35},
		{"3-day", 3, 23},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Run(Config{Seed: 42, Days: tc.days})
			if err != nil {
				t.Fatal(err)
			}
			db := st.DB // st, and the simulator with it, is unreachable from here
			with := liveHeap()
			records := db.GlobalGeneration()
			runtime.KeepAlive(db)
			without := liveHeap()
			perRecord := float64(int64(with)-int64(without)) / float64(records)
			t.Logf("the store holds %d records in %.1f B each", records, perRecord)
			if perRecord >= tc.ceiling {
				t.Errorf("the store holds %.1f B per record, want < %.0f", perRecord, tc.ceiling)
			}
		})
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

// TestMarketFixedCost holds what the simulated cloud and the monitor
// retain per catalog market before the first record, configured as a
// study configures them: the live heap cloud.New and core.New add over a
// built catalog and an empty store. It measures 472 B (277 + 195) with
// one dense row per market in the demand model, the simulator and the
// monitor, addressed by catalog index; 1,073 B (635 + 438) when each
// layer kept a heap object per market holding its own copy of the market
// ID, the simulator an index map and a copy of the static parameters,
// and the monitor its schedule as time.Time. The ceiling sits a tenth
// over the measurement, rounded up to a whole byte.
func TestMarketFixedCost(t *testing.T) {
	const ceiling = 520
	cat := market.New()
	db := store.New()
	before := liveHeap()
	sim, err := cloud.New(cat, cloud.Config{
		Seed:            42,
		VolatileMarkets: append(CaseStudyMarkets(), BidSpreadMarket()),
		StrongPools:     caseStudyPools(),
	})
	if err != nil {
		t.Fatal(err)
	}
	simOnly := liveHeap()
	svc, err := core.New(sim, db, core.Config{
		Seed:              42,
		WatchedMarkets:    TracedMarkets(),
		BidSpreadMarkets:  []market.SpotID{BidSpreadMarket()},
		RevocationMarkets: CaseStudyMarkets(),
	})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(svc)
	n := float64(len(cat.SpotMarkets()))
	perMarket := float64(int64(after)-int64(before)) / n
	t.Logf("cloud.New %.0f B + core.New %.0f B = %.0f B per market",
		float64(int64(simOnly)-int64(before))/n, float64(int64(after)-int64(simOnly))/n, perMarket)
	if perMarket >= ceiling {
		t.Errorf("cloud.New + core.New retain %.0f B per market, want < %d", perMarket, ceiling)
	}
}
