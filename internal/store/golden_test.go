package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spotlight/internal/market"
)

// The golden fixture pins the on-disk format — the snapshot file's layout,
// log framing and run headers, and the binary record encoding — against
// accidental change: testdata/golden/store holds a committed data directory
// (snapshot + a live log file + meta) and expected-state.json the exact
// WriteJSON dump recovery must reproduce from it. If either file stops
// matching, the format changed and needs a new magic/version plus a
// migration story, not a silent break.
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
	root := goldenDir(t)
	storeFixture := filepath.Join(root, "store")
	expectedPath := filepath.Join(root, "expected-state.json")
	if os.Getenv("STORE_GOLDEN_REGEN") != "" {
		regenGolden(t, storeFixture, expectedPath)
	}

	// Recover from a copy: Open repairs torn tails in place and the
	// committed fixture must stay pristine.
	dir := t.TempDir()
	copyTree(t, storeFixture, dir)
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open(golden fixture): %v", err)
	}

	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want, err := os.ReadFile(expectedPath)
	if err != nil {
		t.Fatalf("read expected state: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("recovered state diverged from the golden dump — the on-disk format changed\n got: %.600s\nwant: %.600s", got.String(), want)
	}

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

// regenGolden rebuilds the committed fixture and the fuzz seed corpus.
func regenGolden(t *testing.T, storeFixture, expectedPath string) {
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
	var dump bytes.Buffer
	if err := s.WriteJSON(&dump); err != nil {
		t.Fatalf("regen dump: %v", err)
	}
	if old, err := os.ReadFile(expectedPath); err == nil && !bytes.Equal(old, dump.Bytes()) {
		t.Errorf("regenerating changed %s: the state a store recovers changed, not only the format it is kept in — commit the new file only if that was the point", expectedPath)
	}
	if err := os.WriteFile(expectedPath, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
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
	writeFuzzSeed(t, "FuzzSnapshotReadJSON", "seed-valid-snapshot", dump.Bytes())
	writeFuzzSeed(t, "FuzzSnapshotReadJSON", "seed-truncated", dump.Bytes()[:dump.Len()/3])
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

func copyTree(t *testing.T, src, dst string) {
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
