package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spotlight/internal/market"
)

// The golden fixture pins the on-disk format — the snapshot file's layout,
// log framing and run headers, and the binary record encoding — against
// accidental change: testdata/golden/store holds a committed data directory
// (snapshot + a live log file + meta), and recovery from it must reproduce
// the store goldenWorkload builds live, by dump and by every accessor. If
// it stops matching, the format changed and needs a new magic/version plus
// a migration story, not a silent break.
//
// Regenerate (after an INTENTIONAL format change) with:
//
//	STORE_GOLDEN_REGEN=1 go test ./internal/store -run TestGolden
//
// and commit the refreshed testdata.

var (
	goldenA = market.SpotID{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductLinux}
	goldenB = market.SpotID{Zone: "eu-west-1b", Type: "c3.xlarge", Product: market.ProductWindows}
)

func goldenDir(t testing.TB) string {
	return filepath.Join("testdata", "golden")
}

// goldenWorkload builds the fixture's store contents: a pre-snapshot part
// (covered by the snapshot after compaction) and a post-snapshot part that
// lives only in the log.
func goldenWorkload(s *Store, p *Persister) error {
	base := time.Date(2015, 9, 1, 12, 0, 0, 0, time.UTC)
	appA := s.Appender(goldenA)
	appB := s.Appender(goldenB)

	appA.AppendProbes([]ProbeRecord{
		{At: base, Market: goldenA, Kind: ProbeOnDemand, Trigger: TriggerSpike, TriggerMarket: goldenA,
			SourceKind: ProbeSpot, SpikeRatio: 1.7, PriceRatio: 1.1, Cost: 0.02},
		{At: base.Add(5 * time.Minute), Market: goldenA, Kind: ProbeOnDemand, Trigger: TriggerRecheck,
			TriggerMarket: goldenA, SourceKind: ProbeOnDemand, Rejected: true, Code: "InsufficientInstanceCapacity", Cost: 0.02},
		{At: base.Add(10 * time.Minute), Market: goldenA, Kind: ProbeOnDemand, Trigger: TriggerRecheck,
			TriggerMarket: goldenA, SourceKind: ProbeOnDemand, Cost: 0.02},
	})
	appA.AppendSpike(SpikeEvent{At: base, Market: goldenA, Price: 0.31, Ratio: 1.7, Probed: true})
	appA.RecordPrice(PricePoint{At: base, Price: 0.31})
	appB.AppendProbes([]ProbeRecord{
		{At: base.Add(time.Minute), Market: goldenB, Kind: ProbeSpot, Trigger: TriggerPeriodicSpot,
			TriggerMarket: goldenB, SourceKind: ProbeSpot, Bid: 0.52, Cost: 0.01},
	})
	appB.AppendBidSpread(BidSpreadRecord{At: base.Add(2 * time.Minute), Market: goldenB, Published: 0.5, Intrinsic: 0.33, Attempts: 5})
	p.NoteClock(base.Add(30 * time.Minute))
	if err := p.Snapshot(); err != nil {
		return err
	}

	// Post-snapshot records: recovered from the log only.
	appA.AppendProbes([]ProbeRecord{{At: base.Add(20 * time.Minute), Market: goldenA, Kind: ProbeSpot,
		Trigger: TriggerCross, TriggerMarket: goldenA, SourceKind: ProbeOnDemand, Bid: 0.4, Cost: 0.01}})
	appA.RecordPrice(PricePoint{At: base.Add(20 * time.Minute), Price: 0.29})
	appB.AppendSpike(SpikeEvent{At: base.Add(21 * time.Minute), Market: goldenB, Price: 0.9, Ratio: 0.8})
	appB.AppendRevocation(RevocationRecord{At: base.Add(25 * time.Minute), Market: goldenB, Bid: 1.0, Held: 95 * time.Minute})
	return p.Flush()
}

func TestGoldenFixture(t *testing.T) {
	if os.Getenv("STORE_GOLDEN_REGEN") != "" {
		regenGolden(t, filepath.Join(goldenDir(t), "store"))
	}

	s := openGolden(t)
	live, err := Open(t.TempDir(), PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Persister().Close()
	if err := goldenWorkload(live, live.Persister()); err != nil {
		t.Fatal(err)
	}
	dump := dumpOf(t, s)
	if want := dumpOf(t, live); dump != want {
		t.Errorf("recovered state diverged from the live workload's — the on-disk format changed\n got: %q\nwant: %q", dump, want)
	}
	sameAccessors(t, "recovered", s, live)

	// Spot checks on derived state, so a format break that still decodes
	// is caught even if the dump happens to match.
	// A: 3 probes + 1 spike + 1 price pre-snapshot, 1 probe + 1 price in
	// the WAL = 7. B: 1 probe + 1 bid spread pre-snapshot, 1 spike +
	// 1 revocation in the WAL = 4.
	if g := s.Generation(goldenA); g != 7 {
		t.Errorf("Generation(%v) = %d, want 7", goldenA, g)
	}
	if g := s.Generation(goldenB); g != 4 {
		t.Errorf("Generation(%v) = %d, want 4", goldenB, g)
	}
	if n := s.ProbeCount(); n != 5 {
		t.Errorf("ProbeCount = %d, want 5", n)
	}
	outages := s.OutagesFor(goldenA, ProbeOnDemand)
	if len(outages) != 1 || outages[0].End.IsZero() {
		t.Errorf("derived outages of %v = %+v, want one closed interval", goldenA, outages)
	}
	if c := s.CrossingStatsFor(goldenA, time.Time{}, time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)); c.Crossings != 1 || c.MaxRatio != 1.7 {
		t.Errorf("crossing stats of %v = %+v, want 1 crossing at ratio 1.7", goldenA, c)
	}
	clock := s.Persister().Clock()
	if want := time.Date(2015, 9, 1, 12, 30, 0, 0, time.UTC); !clock.Equal(want) {
		t.Errorf("recovered clock = %v, want %v", clock, want)
	}
}

// TestGoldenDumpRoundTripIsExact: the golden fixture's dump loads into a
// store that dumps the same bytes, outages included, and reads as the
// live workload's store does.
func TestGoldenDumpRoundTripIsExact(t *testing.T) {
	dump := dumpOf(t, openGolden(t))
	loaded, err := loadDump([]byte(dump))
	if err != nil {
		t.Fatal(err)
	}
	if again := dumpOf(t, loaded); again != dump {
		t.Errorf("the loaded dump dumps differently:\n got: %q\nwant: %q", again, dump)
	}
	live, err := Open(t.TempDir(), PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Persister().Close()
	if err := goldenWorkload(live, live.Persister()); err != nil {
		t.Fatal(err)
	}
	sameAccessors(t, "loaded", loaded, live)
}

// openGolden recovers the golden fixture from a copy: Open repairs torn
// tails in place and the committed fixture must stay pristine.
func openGolden(t testing.TB) *Store {
	t.Helper()
	dir := t.TempDir()
	copyTree(t, filepath.Join(goldenDir(t), "store"), dir)
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open(golden fixture): %v", err)
	}
	t.Cleanup(func() { s.Persister().Abandon() })
	return s
}

// sameAccessors holds every read of got to want's: assertStoresEqual's
// dump, aggregates and generations, and each record accessor and windowed
// fold over all time, per market.
func sameAccessors(t *testing.T, what string, got, want *Store) {
	t.Helper()
	assertStoresEqual(t, got, want)
	from, to := time.Unix(0, minStamp), time.Unix(0, maxStamp)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Markets", got.Markets(), want.Markets()},
		{"PricedMarkets", got.PricedMarkets(), want.PricedMarkets()},
		{"Probes", got.Probes(), want.Probes()},
		{"ProbeCount", got.ProbeCount(), want.ProbeCount()},
		{"Spikes", got.Spikes(), want.Spikes()},
		{"Outages", got.Outages(), want.Outages()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %s = %+v, want %+v", what, c.name, c.got, c.want)
		}
	}
	for _, id := range want.Markets() {
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"BidSpreadsFor", got.BidSpreadsFor(id), want.BidSpreadsFor(id)},
			{"RevocationsFor", got.RevocationsFor(id, from, to), want.RevocationsFor(id, from, to)},
			{"SpikesFor", got.SpikesFor(id, from, to), want.SpikesFor(id, from, to)},
			{"CrossingStatsFor", got.CrossingStatsFor(id, from, to), want.CrossingStatsFor(id, from, to)},
			{"Prices", got.Prices(id), want.Prices(id)},
			{"PricesIn", got.PricesIn(id, from, to), want.PricesIn(id, from, to)},
			{"PriceStatsIn", got.PriceStatsIn(id, from, to), want.PriceStatsIn(id, from, to)},
			{"OutagesFor od", got.OutagesFor(id, ProbeOnDemand), want.OutagesFor(id, ProbeOnDemand)},
			{"OutagesFor spot", got.OutagesFor(id, ProbeSpot), want.OutagesFor(id, ProbeSpot)},
			{"OutageOverlap od", got.OutageOverlap(id, ProbeOnDemand, from, to), want.OutageOverlap(id, ProbeOnDemand, from, to)},
			{"OutageOverlap spot", got.OutageOverlap(id, ProbeSpot, from, to), want.OutageOverlap(id, ProbeSpot, from, to)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: %s(%v) = %+v, want %+v", what, c.name, id, c.got, c.want)
			}
		}
	}
}

// regenGolden rebuilds the committed fixture and the fuzz seed corpus.
func regenGolden(t *testing.T, storeFixture string) {
	t.Helper()
	if err := os.RemoveAll(storeFixture); err != nil {
		t.Fatal(err)
	}
	s, err := Open(storeFixture, PersistOptions{})
	if err != nil {
		t.Fatalf("regen Open: %v", err)
	}
	p := s.Persister()
	if err := goldenWorkload(s, p); err != nil {
		t.Fatalf("regen workload: %v", err)
	}
	// Leave the fixture as a crashed process would: lock released, the
	// live log file on disk, no lock file committed.
	p.Abandon()
	if err := os.Remove(filepath.Join(storeFixture, "LOCK")); err != nil {
		t.Fatal(err)
	}
	// Seed corpora for the fuzz targets, in the go-fuzz corpus encoding.
	writeFuzzSeed(t, "FuzzWALDecode", "seed-valid-segment", fuzzSegment())
	writeFuzzSeed(t, "FuzzWALDecode", "seed-torn-tail", fuzzSegment()[:len(fuzzSegment())-30])
	miscounted, _ := fuzzMiscountedSegment()
	writeFuzzSeed(t, "FuzzWALDecode", "seed-miscounted-run", miscounted)
	// The fixture's snapshot file seeds the snapshot loader.
	image, err := os.ReadFile(filepath.Join(storeFixture, snapshotName(fuzzSnapSeq)))
	if err != nil {
		t.Fatal(err)
	}
	writeFuzzSeed(t, "FuzzSnapshotV2Decode", "seed-valid-snapshot", image)
	writeFuzzSeed(t, "FuzzSnapshotV2Decode", "seed-truncated", image[:len(image)*2/3])
	for name, seed := range fuzzFollowSeeds() {
		writeFuzzSeed(t, "FuzzFollowStream", name, seed)
	}
	t.Log("golden fixture regenerated; commit testdata/")
}

func writeFuzzSeed(t *testing.T, fuzzName, seedName string, data []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, seedName), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy fixture: %v", err)
	}
}
