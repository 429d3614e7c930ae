package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
)

var persistBase = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)

func persistMarket(i int) market.SpotID {
	zones := []market.Zone{"us-east-1a", "us-east-1b", "eu-west-1a", "ap-southeast-2a"}
	types := []market.InstanceType{"m3.large", "c3.xlarge"}
	return market.SpotID{
		Zone:    zones[i%len(zones)],
		Type:    types[(i/len(zones))%len(types)],
		Product: market.ProductLinux,
	}
}

// assertStoresEqual compares two stores down to every layer recovery
// rebuilds: record streams (via the consistent dump), region aggregates,
// and every generation counter, per market and per scope.
func assertStoresEqual(t *testing.T, got, want *Store) {
	t.Helper()
	if g, w := dumpOf(t, got), dumpOf(t, want); g != w {
		t.Errorf("record streams differ:\n got: %q\nwant: %q", g[:min(len(g), 400)], w[:min(len(w), 400)])
	}
	now := persistBase.Add(30 * 24 * time.Hour)
	if g, w := got.RegionAggregates(now), want.RegionAggregates(now); !reflect.DeepEqual(g, w) {
		t.Errorf("RegionAggregates differ:\n got: %+v\nwant: %+v", g, w)
	}
	if g, w := got.GlobalGeneration(), want.GlobalGeneration(); g != w {
		t.Errorf("GlobalGeneration = %d, want %d", g, w)
	}
	for _, id := range want.Markets() {
		if g, w := got.Generation(id), want.Generation(id); g != w {
			t.Errorf("Generation(%v) = %d, want %d", id, g, w)
		}
	}
	for _, scope := range scopesOf(want.Markets()) {
		r, p := market.Region(scope[0]), market.Product(scope[1])
		if g, w := got.GenerationOfScope(r, p), want.GenerationOfScope(r, p); g != w {
			t.Errorf("GenerationOfScope(%q, %q) = %d, want %d", r, p, g, w)
		}
	}
}

// appendWorkload drives every append path once per market: probes with a
// rejection/recovery pair (deriving an outage), spikes above and below
// the crossing threshold, prices, bid spreads, and revocations. A market
// that holds records already takes the next ones an hour per record later,
// so a repeated workload keeps every series in time order.
func appendWorkload(s *Store, markets int, perMarket int) {
	for m := 0; m < markets; m++ {
		id := persistMarket(m)
		app := s.Appender(id)
		base := persistBase.Add(time.Duration(s.Generation(id)) * time.Hour)
		var batch []ProbeRecord
		for i := 0; i < perMarket; i++ {
			at := base.Add(time.Duration(m*perMarket+i) * time.Minute)
			batch = append(batch, ProbeRecord{
				At: at, Market: id, Kind: ProbeOnDemand, Trigger: TriggerSpike,
				TriggerMarket: id, SourceKind: ProbeSpot,
				SpikeRatio: 1.5, PriceRatio: 1.1,
				Rejected: i%3 == 1, Code: "ICE", Cost: 0.01,
			})
			if i%2 == 0 {
				app.AppendSpike(SpikeEvent{At: at, Market: id, Price: 0.5 + float64(i), Ratio: 0.8 + float64(i%3), Probed: i%4 == 0})
			}
			app.RecordPrice(PricePoint{At: at, Price: 0.1 * float64(i+1)})
		}
		app.AppendProbes(batch)
		app.AppendBidSpread(BidSpreadRecord{At: base.Add(time.Duration(m) * time.Hour), Market: id, Published: 0.5, Intrinsic: 0.3, Attempts: 4})
		app.AppendRevocation(RevocationRecord{At: base.Add(time.Duration(m) * time.Hour), Market: id, Bid: 1.0, Held: 90 * time.Minute})
	}
}

func TestDurableRoundTripAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 5, 12)

	oracle := New()
	appendWorkload(oracle, 5, 12)

	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertStoresEqual(t, re, oracle)
	if re.Persister() == nil {
		t.Fatal("reopened store has no persister")
	}
	if err := re.Persister().Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}

func TestDurableRoundTripWALOnly(t *testing.T) {
	// Flush but never Close: recovery must come entirely from the log,
	// with no snapshot written.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 4, 9)
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*")); len(snaps) != 0 {
		t.Fatalf("unexpected snapshots before any Snapshot call: %v", snaps)
	}
	// Four markets, one log: a flush is one write into one file.
	if ents, err := os.ReadDir(filepath.Join(dir, "wal")); err != nil || len(ents) != 1 {
		t.Fatalf("wal/ holds %d entries after one flush (err %v), want the one log file", len(ents), err)
	}

	oracle := New()
	appendWorkload(oracle, 4, 9)

	s.Persister().Abandon()
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertStoresEqual(t, re, oracle)
}

func TestUnflushedAppendsAreLostCleanly(t *testing.T) {
	// Records appended after the last Flush are not acknowledged; a
	// crash (simulated: reopen without Flush/Close) drops exactly them.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	id := persistMarket(0)
	app := s.Appender(id)
	app.AppendProbes([]ProbeRecord{{At: persistBase, Market: id, Kind: ProbeSpot}})
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	app.AppendProbes([]ProbeRecord{{At: persistBase.Add(time.Minute), Market: id, Kind: ProbeSpot}})

	s.Persister().Abandon()
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.Generation(id); got != 1 {
		t.Fatalf("recovered generation = %d, want 1 (the flushed record)", got)
	}
}

// A record written through an Appender is its bound market's whatever its
// own Market field says — here unset: its log frame and its follow-stream
// frame name the bound market, so a restart recovers it there and a
// follower applies it there, instead of both refusing the frame.
func TestAppenderRecordIsItsBoundMarkets(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	id := persistMarket(0)
	var stream bytes.Buffer
	sub, sw := serveFollow(s, nil, &stream, persistBase)
	defer sub.Close()
	s.Appender(id).AppendSpike(SpikeEvent{At: persistBase, Price: 0.4, Ratio: 1.5})
	pumpFollow(sub, sw, persistBase)
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.Persister().Abandon()

	want := []SpikeEvent{{At: persistBase, Market: id, Price: 0.4, Ratio: 1.5}}
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.SpikesFor(id, persistBase, persistBase); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered spikes = %+v, want %+v", got, want)
	}
	follower := New()
	if err := follower.Follow(&stream, &testFollower{db: follower, salt: streamSalt}); !errors.Is(err, io.EOF) {
		t.Fatalf("follow: %v", err)
	}
	if got := follower.SpikesFor(id, persistBase, persistBase); !reflect.DeepEqual(got, want) {
		t.Fatalf("followed spikes = %+v, want %+v", got, want)
	}
}

func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment size rotates the log after every flush, so
	// compaction has files to delete.
	s, err := Open(dir, PersistOptions{SegmentSize: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	oracle := New()
	for round := 0; round < 3; round++ {
		appendWorkload(s, 3, 20)
		appendWorkload(oracle, 3, 20)
		if err := p.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	preSegs := len(logFiles(t, dir))
	if preSegs < 3 {
		t.Fatalf("expected rotated log files before snapshot, got %d", preSegs)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if postSegs := len(logFiles(t, dir)); postSegs != 0 {
		t.Errorf("snapshot left %d covered log files, want 0", postSegs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %v, want exactly one", snaps)
	}
	if fi, err := os.Stat(snaps[0]); err != nil || !fi.Mode().IsRegular() {
		t.Fatalf("snapshot %s is not one file (err=%v)", snaps[0], err)
	}

	// Post-snapshot appends land in a fresh file and replay on top.
	id := persistMarket(0)
	s.Appender(id).AppendProbes([]ProbeRecord{{At: persistBase.Add(1000 * time.Hour), Market: id, Kind: ProbeSpot, Cost: 0.5}})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush after snapshot: %v", err)
	}
	oracle.AppendProbe(ProbeRecord{At: persistBase.Add(1000 * time.Hour), Market: id, Kind: ProbeSpot, Cost: 0.5})

	p.Abandon()
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertStoresEqual(t, re, oracle)
}

// logFiles lists the data directory's log files in series order.
func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "wal", "log-*.wal"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	sort.Strings(files)
	return files
}

// persistOp is one append round of the crash-recovery oracle log: n
// records of one family into one market. apply feeds the round's first k
// records to a store (a torn log tail can end inside a round).
type persistOp struct {
	n     int
	apply func(st *Store, k int)
}

// randomRound draws one append round of n records: a random family into
// one of the first markets persistMarkets, timestamps ascending from at.
func randomRound(rng *rand.Rand, markets, n int, at time.Time) persistOp {
	id := persistMarket(rng.IntN(markets))
	stamp := func(i int) time.Time { return at.Add(time.Duration(i) * time.Second) }
	switch rng.IntN(5) {
	case 0:
		recs := make([]ProbeRecord, n)
		for i := range recs {
			recs[i] = ProbeRecord{At: stamp(i), Market: id, Kind: ProbeKind(1 + rng.IntN(2)),
				Trigger: TriggerRecheck, TriggerMarket: id,
				Rejected: rng.IntN(3) == 0, Code: "cap", Cost: 0.02}
		}
		return persistOp{n, func(st *Store, k int) { st.AppendProbes(recs[:k]) }}
	case 1:
		recs := make([]SpikeEvent, n)
		for i := range recs {
			recs[i] = SpikeEvent{At: stamp(i), Market: id, Price: rng.Float64() * 2, Ratio: rng.Float64() * 3, Probed: rng.IntN(2) == 0}
		}
		return persistOp{n, func(st *Store, k int) { st.AppendSpikes(recs[:k]) }}
	case 2:
		recs := make([]PricePoint, n)
		for i := range recs {
			recs[i] = PricePoint{At: stamp(i), Price: rng.Float64()}
		}
		return persistOp{n, func(st *Store, k int) { st.RecordPrices(id, recs[:k]) }}
	case 3:
		recs := make([]BidSpreadRecord, n)
		for i := range recs {
			recs[i] = BidSpreadRecord{At: stamp(i), Market: id, Published: 1, Intrinsic: rng.Float64(), Attempts: rng.IntN(9)}
		}
		return persistOp{n, func(st *Store, k int) { st.AppendBidSpreads(recs[:k]) }}
	default:
		recs := make([]RevocationRecord, n)
		for i := range recs {
			recs[i] = RevocationRecord{At: stamp(i), Market: id, Bid: 1.2, Held: time.Duration(rng.IntN(3600)) * time.Second}
		}
		return persistOp{n, func(st *Store, k int) { st.AppendRevocations(recs[:k]) }}
	}
}

// prefixOracle returns an in-memory store fed exactly the first k records
// of the op log.
func prefixOracle(log []persistOp, k uint64) *Store {
	oracle := New()
	for _, op := range log {
		n := min(uint64(op.n), k)
		op.apply(oracle, int(n))
		if k -= n; k == 0 {
			break
		}
	}
	return oracle
}

// TestCrashRecoveryTruncatedWAL is the randomized crash-recovery
// property test: a random append workload runs against a durable store
// (small log files, snapshots and flushes sprinkled in), the newest log
// file is hard-truncated at an arbitrary byte offset, and the reopened
// store must exactly match an in-memory store replaying the surviving
// prefix of the append history — aggregates, rollups, and generations
// included.
func TestCrashRecoveryTruncatedWAL(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(seed, 0xc4a5))
			dir := t.TempDir()
			s, err := Open(dir, PersistOptions{SegmentSize: 1 << 11})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			p := s.Persister()

			const markets = 6
			var log []persistOp
			var snapshotted uint64
			steps := 200 + rng.IntN(300)
			for i := 0; i < steps; i++ {
				op := randomRound(rng, markets, 1, persistBase.Add(time.Duration(i)*time.Minute))
				op.apply(s, op.n)
				log = append(log, op)
				if rng.IntN(25) == 0 {
					if err := p.Flush(); err != nil {
						t.Fatalf("Flush: %v", err)
					}
				}
				if rng.IntN(120) == 0 {
					if err := p.Snapshot(); err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					snapshotted = s.GlobalGeneration()
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatalf("final Flush: %v", err)
			}

			// Crash: truncate the newest log file at a random offset,
			// chopping off a suffix of the log (possibly mid-frame).
			p.Abandon()
			if files := logFiles(t, dir); len(files) > 0 {
				target := files[len(files)-1]
				info, err := os.Stat(target)
				if err != nil {
					t.Fatalf("stat: %v", err)
				}
				if err := os.Truncate(target, rng.Int64N(info.Size()+1)); err != nil {
					t.Fatalf("truncate: %v", err)
				}
			}

			re, err := Open(dir, PersistOptions{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}

			// The recovered state must be an exact prefix of the append
			// history, no shorter than what the last snapshot holds. The
			// recovered generation (== records recovered) is the prefix
			// length; replay that prefix into a pristine in-memory store
			// as the oracle.
			k := re.GlobalGeneration()
			if k < snapshotted || k > uint64(len(log)) {
				t.Fatalf("recovered %d records; the last snapshot held %d and %d were appended", k, snapshotted, len(log))
			}
			assertStoresEqual(t, re, prefixOracle(log, k))
		})
	}
}

// TestRecoveryIsAGlobalPrefix: whatever a crash leaves of the log,
// recovery is a prefix of the store's whole append history — not of each
// market's — that holds every acknowledged record, and it is the same
// prefix, bit for bit, every time the directory is opened. Seeded random
// interleavings of the five families over ten markets in rounds of one to
// four records, flushes and snapshots at random points, log files of a
// few rounds each; then a last flush is torn: the newest log file is cut
// at a random byte at or past where the previous flush left it.
func TestRecoveryIsAGlobalPrefix(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(seed, 0x910ba1))
			dir := t.TempDir()
			s, err := Open(dir, PersistOptions{SegmentSize: 1 << 10})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			p := s.Persister()

			const markets = 10
			var log []persistOp
			appendRounds := func(n int) {
				for i := 0; i < n; i++ {
					op := randomRound(rng, markets, 1+rng.IntN(4), persistBase.Add(time.Duration(len(log))*time.Minute))
					op.apply(s, op.n)
					log = append(log, op)
				}
			}
			for i, steps := 0, 30+rng.IntN(60); i < steps; i++ {
				appendRounds(1 + rng.IntN(8))
				switch rng.IntN(12) {
				case 0:
					if err := p.Snapshot(); err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
				case 1, 2, 3, 4:
					if err := p.Flush(); err != nil {
						t.Fatalf("Flush: %v", err)
					}
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			acked := s.GlobalGeneration()
			var ackedFile string
			var ackedSize int64
			if files := logFiles(t, dir); len(files) > 0 {
				ackedFile = files[len(files)-1]
				info, err := os.Stat(ackedFile)
				if err != nil {
					t.Fatal(err)
				}
				ackedSize = info.Size()
			}

			// The flush the crash tears: one write, into the newest file.
			appendRounds(1 + rng.IntN(8))
			if err := p.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			total := s.GlobalGeneration()
			p.Abandon()
			files := logFiles(t, dir)
			target := files[len(files)-1]
			info, err := os.Stat(target)
			if err != nil {
				t.Fatal(err)
			}
			floor := int64(0) // the torn write opened the file, unless
			if target == ackedFile {
				floor = ackedSize
			}
			if err := os.Truncate(target, floor+rng.Int64N(info.Size()-floor+1)); err != nil {
				t.Fatalf("truncate: %v", err)
			}

			re, err := Open(dir, PersistOptions{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			k := re.GlobalGeneration()
			if k < acked || k > total {
				t.Fatalf("recovered %d records, want between the %d acknowledged and the %d appended", k, acked, total)
			}
			assertStoresEqual(t, re, prefixOracle(log, k))

			// The first recovery repaired the directory; a second one must
			// find the same store in it.
			re.Persister().Abandon()
			again, err := Open(dir, PersistOptions{})
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer again.Persister().Close()
			assertStoresEqual(t, again, re)
		})
	}
}

// TestReplaySkipsFramesTheSnapshotCovers: a snapshot rotates the log
// before it captures the shards, so a record appended in between is in
// both the capture and the new epoch's log. Replay must apply it once —
// the index's record count says which log frames the snapshot already
// holds. The overlap is built by hand here (it needs an append racing a
// snapshot): the last two snapshotted records of one market are framed
// again ahead of a new one.
func TestReplaySkipsFramesTheSnapshotCovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a, b := persistMarket(0), persistMarket(1)
	var as []PricePoint
	for i := 0; i < 5; i++ {
		as = append(as, PricePoint{At: persistBase.Add(time.Duration(i) * time.Minute), Price: float64(i + 1)})
	}
	s.RecordPrices(a, as[:4])
	s.AppendSpike(SpikeEvent{At: persistBase, Market: b, Ratio: 2})
	if err := s.Persister().Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Persister().Abandon()

	log := appendRunHeader([]byte(walMagic), a, 2)
	for _, p := range as[2:] { // records 3 and 4 are in the snapshot, 5 is new
		log = frameOf(log, p)
	}
	log = appendRunHeader(log, b, 1)
	log = frameOf(log, SpikeEvent{At: persistBase.Add(time.Hour), Market: b, Ratio: 3})
	snap, err := findLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, next, err := listLog(filepath.Join(dir, "wal"), snap.seq)
	if err != nil || len(files) != 0 {
		t.Fatalf("log files after the snapshot: %v, %v", files, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", next.name()), log, 0o644); err != nil {
		t.Fatal(err)
	}

	oracle := New()
	oracle.RecordPrices(a, as)
	oracle.AppendSpike(SpikeEvent{At: persistBase, Market: b, Ratio: 2})
	oracle.AppendSpike(SpikeEvent{At: persistBase.Add(time.Hour), Market: b, Ratio: 3})
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Persister().Close()
	assertStoresEqual(t, re, oracle)
}

// TestSnapshotUnderConcurrentAppends: snapshots cut while appenders run —
// on shards that exist and on ones the appenders create mid-snapshot —
// lose nothing and double nothing. Whatever the interleaving, every record
// is in the snapshot, in a log file it does not cover, or in both and
// skipped by ordinal; after a final flush a crash must recover exactly
// the store that was running.
func TestSnapshotUnderConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{SegmentSize: 1 << 14})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	const idle, writers, rounds = 400, 4, 400
	// Idle shards that sort (and so are captured) ahead of the writers'
	// keep every snapshot's cut open long enough for appends to land
	// between its log rotation and their shard's capture.
	for i := 0; i < idle; i++ {
		s.RecordPrice(market.SpotID{Zone: "ap-south-1a", Type: market.InstanceType(fmt.Sprintf("m%d.large", i)), Product: market.ProductLinux},
			PricePoint{At: persistBase, Price: 1})
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Each writer cycles through its own markets, opening a new
				// shard every 50 rounds.
				id := concMarket(w*100 + i/50)
				at := persistBase.Add(time.Duration(i) * time.Minute)
				s.AppendProbe(ProbeRecord{At: at, Market: id, Kind: ProbeOnDemand, Rejected: i%5 == 0, Cost: 0.01})
				s.RecordPrices(id, []PricePoint{{At: at, Price: 0.1}, {At: at.Add(time.Second), Price: 0.2}})
			}
		}(w)
	}
	// Snapshot while the first half lands, so the newest snapshot's cut
	// raced appends and the log past it is not empty.
	for s.GlobalGeneration() < idle+writers*rounds*3/2 {
		if err := p.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	}
	wg.Wait()
	if got, want := s.GlobalGeneration(), uint64(idle+writers*rounds*3); got != want {
		t.Fatalf("appended %d records, want %d", got, want)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	p.Abandon()
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Persister().Close()
	assertStoresEqual(t, re, s)
}

// TestDumpConsistentCut is the regression test for the torn-read race: a
// dump that read each record family in a separate pass could hold an
// append's spike while missing the probe appended before it. Writers here
// append a probe strictly before its paired spike; under the per-shard
// consistent cut a dump is taken at, a concurrent append lands in every
// family of its market or in none, so no loaded dump can ever hold more
// spikes than probes for a market.
func TestDumpConsistentCut(t *testing.T) {
	s := New()
	const writers = 4
	const pairs = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		id := persistMarket(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			app := s.Appender(id)
			for i := 0; i < pairs; i++ {
				at := persistBase.Add(time.Duration(i) * time.Second)
				app.AppendProbes([]ProbeRecord{{At: at, Market: id, Kind: ProbeOnDemand}})
				app.AppendSpike(SpikeEvent{At: at, Market: id, Price: 1, Ratio: 2})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := loadDump([]byte(dumpOf(t, s)))
			if err != nil {
				t.Errorf("load the dump: %v", err)
				return
			}
			for _, id := range snap.Markets() {
				spikes := len(snap.SpikesFor(id, persistBase, persistBase.Add(time.Duration(pairs)*time.Second)))
				probes := len(snap.ProbesWhere(func(r ProbeRecord) bool { return r.Market == id }))
				if spikes > probes {
					t.Errorf("torn dump: market %v has %d spikes but only %d probes", id, spikes, probes)
					return
				}
			}
		}
	}()
	// Writers finish, then the checker is released.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
}

func TestPersisterClockAndSalt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	salt := p.Salt()
	if !p.Clock().IsZero() {
		t.Errorf("fresh directory clock = %v, want zero", p.Clock())
	}
	noted := persistBase.Add(42 * time.Hour)
	p.NoteClock(noted)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rp := re.Persister()
	if rp.Salt() != salt {
		t.Errorf("salt changed across restart: %d -> %d", salt, rp.Salt())
	}
	if !rp.Clock().Equal(noted) {
		t.Errorf("clock = %v, want %v", rp.Clock(), noted)
	}
}

func TestClockResumesFromRecoveredRecordsAfterCrash(t *testing.T) {
	// A crash loses the meta clock noted since the last snapshot, but
	// not the flushed records of those ticks. The resume clock must be
	// the newest recovered record, not the stale meta value — otherwise
	// the owner re-simulates (and double-records) a window the store
	// already covers.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	id := persistMarket(0)
	p.NoteClock(persistBase)
	if err := p.Snapshot(); err != nil { // persists clock = persistBase
		t.Fatalf("Snapshot: %v", err)
	}
	newest := persistBase.Add(3 * time.Hour)
	s.Appender(id).AppendProbes([]ProbeRecord{{At: newest, Market: id, Kind: ProbeSpot}})
	p.NoteClock(newest) // noted in memory only; never persisted
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	p.Abandon()

	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.Persister().Clock(); !got.Equal(newest) {
		t.Errorf("resume clock = %v, want newest recovered record %v", got, newest)
	}
}

func TestSaltRotatesAfterCrashOnly(t *testing.T) {
	// A crash rewinds generations to the last flush; if a different
	// record history later reaches the same count, a pre-crash ETag
	// would falsely revalidate. So the effective salt must rotate after
	// a crash — and only after a crash: clean restarts keep validators
	// alive, which the e2e restart test depends on.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	salt := s.Persister().Salt()
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Persister().Salt(); got != salt {
		t.Errorf("salt rotated across a clean restart: %d -> %d", salt, got)
	}
	s2.Persister().Abandon()

	s3, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if got := s3.Persister().Salt(); got == salt {
		t.Error("salt unchanged after a crash; stale pre-crash ETags could answer 304")
	}
	s3.Persister().Close()
}

func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Open(dir, PersistOptions{}); err == nil {
		t.Fatal("second Open of a live data dir succeeded; two writers would corrupt the WAL")
	}
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	re.Persister().Close()
}

func TestOpenDropsHeaderOnlySegment(t *testing.T) {
	// A crash between a log file's magic write and its first frame write
	// leaves a header-only file. Recovery must remove it (it holds nothing)
	// and must never append into it: a second magic stacked into the file
	// would read as corruption at the next recovery, discarding
	// acknowledged frames.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "wal", logFile{1, 1}.name())
	if err := os.WriteFile(orphan, []byte(walMagic), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("header-only log file survived recovery: stat err = %v", err)
	}
	id := persistMarket(0)
	s.Appender(id).AppendProbes([]ProbeRecord{{At: persistBase, Market: id, Kind: ProbeSpot}})
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.Persister().Abandon()

	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.Generation(id); got != 1 {
		t.Fatalf("recovered generation = %d, want 1", got)
	}
}

// dirListing renders every file under dir with its bytes, for tests that
// must find a directory exactly as they left it.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			data, rerr := os.ReadFile(path)
			fmt.Fprintf(&b, "%s %x\n", path, data)
			err = rerr
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// snapIndexEntry is one index entry as a test wants it written, true or
// not.
type snapIndexEntry struct {
	market               string
	off, length, records uint64
}

// snapshotImage assembles a snapshot image around body (the magic and the
// sections) from explicit index entries and footer fields, with a correct
// checksum: what it says is wrong only where the caller made it so.
func snapshotImage(body []byte, index []snapIndexEntry, indexOff, seq uint64) []byte {
	img := append([]byte(nil), body...)
	start := len(img)
	for _, e := range index {
		img = appendString(img, e.market)
		img = appendUvarint(img, e.off)
		img = appendUvarint(img, e.length)
		img = appendUvarint(img, e.records)
	}
	img = binary.LittleEndian.AppendUint64(img, indexOff)
	img = binary.LittleEndian.AppendUint64(img, seq)
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img[start:], walCastagnoli))
	return append(img, snapEndMagic...)
}

// TestOpenFailsOnDamagedNewestSnapshot: compaction deletes the log epochs
// a snapshot covers, so falling back past a damaged newest snapshot would
// present data loss as a successful recovery. Whatever is wrong with the
// file — and a published file can only be wrong through outside damage —
// Open must refuse it by path, change nothing, and open once the operator
// has removed it.
func TestOpenFailsOnDamagedNewestSnapshot(t *testing.T) {
	pristine := t.TempDir()
	s, err := Open(pristine, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 3, 5)
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap, err := findLatestSnapshot(pristine)
	if err != nil || snap.seq == 0 {
		t.Fatalf("findLatestSnapshot = %+v, %v", snap, err)
	}
	good, err := os.ReadFile(snap.path)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := parseSnapshot(good, snap.seq)
	if err != nil || len(sections) != 3 {
		t.Fatalf("parseSnapshot = %d sections, %v", len(sections), err)
	}
	var index []snapIndexEntry
	indexOff := uint64(len(snapMagic))
	for _, sec := range sections {
		index = append(index, snapIndexEntry{sec.id.String(), indexOff, uint64(len(sec.frames)), sec.records})
		indexOff += uint64(len(sec.frames))
	}
	body := good[:indexOff]
	if !bytes.Equal(snapshotImage(body, index, indexOff, snap.seq), good) {
		t.Fatal("snapshotImage does not reproduce the file the store wrote")
	}
	// reindexed is the image with one index entry rewritten.
	reindexed := func(i int, edit func(*snapIndexEntry)) []byte {
		bad := append([]snapIndexEntry(nil), index...)
		edit(&bad[i])
		return snapshotImage(body, bad, indexOff, snap.seq)
	}
	flipped := func(at int) []byte {
		img := append([]byte(nil), good...)
		img[at] ^= 0xff
		return img
	}

	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"flipped byte in a section", flipped(len(snapMagic) + 12)},
		{"flipped byte in the index", flipped(int(indexOff) + 2)},
		{"bad opening magic", flipped(0)},
		{"bad closing magic", flipped(len(good) - 1)},
		{"truncated mid-section", good[:len(snapMagic)+20]},
		{"truncated mid-index", good[:indexOff+5]},
		{"truncated mid-footer", good[:len(good)-5]},
		{"zero bytes", nil},
		{"section past the end of the file", reindexed(2, func(e *snapIndexEntry) { e.length += uint64(len(good)) })},
		{"section past the start of the index", reindexed(2, func(e *snapIndexEntry) { e.length++ })},
		{"section overlapping its neighbour", reindexed(1, func(e *snapIndexEntry) { e.off-- })},
		{"gap between sections", reindexed(1, func(e *snapIndexEntry) { e.off++ })},
		{"gap before the index", snapshotImage(body, index[:2], indexOff, snap.seq)},
		{"duplicate market", reindexed(1, func(e *snapIndexEntry) { e.market = index[0].market })},
		{"unparsable market", reindexed(1, func(e *snapIndexEntry) { e.market = "not a market" })},
		{"wrong record count", reindexed(0, func(e *snapIndexEntry) { e.records++ })},
		{"index offset past the footer", snapshotImage(body, index, uint64(len(good)), snap.seq)},
		{"another snapshot's footer", snapshotImage(body, index, indexOff, snap.seq+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, pristine, dir)
			path := filepath.Join(dir, filepath.Base(snap.path))
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirListing(t, dir)
			got, err := Open(dir, PersistOptions{})
			if err == nil || got != nil {
				t.Fatalf("Open = (%v, %v), want no store and an error", got, err)
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "remove the file") {
				t.Errorf("error %q does not name %s and the remedy", err, path)
			}
			if after := dirListing(t, dir); after != before {
				t.Errorf("the refused Open changed the directory:\n got: %.600s\nwant: %.600s", after, before)
			}
			// Removing the damaged snapshot is the explicit opt-in to
			// recover from whatever remains.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, PersistOptions{})
			if err != nil {
				t.Fatalf("Open after removing the damaged snapshot: %v", err)
			}
			re.Persister().Close()
		})
	}
}

// TestOpenRejectsV1Snapshot: a snapshot in a format this version cannot
// read — the version-1 snapshot-<SEQ>.json, the previous release's
// snapshot-<SEQ>/ directory — covers records whose log epochs were
// compacted away; ignoring it and recovering from what is readable would
// present their loss as a successful Open. Only one a readable snapshot
// supersedes is passed over.
func TestOpenRejectsV1Snapshot(t *testing.T) {
	for _, tc := range []struct {
		name      string
		entry     string
		dir       bool
		closeOnce bool // the directory holds snapshot-00000002.snap
		refused   bool
	}{
		{name: "version-1 file", entry: "snapshot-00000001.json", refused: true},
		{name: "previous release's directory", entry: "snapshot-00000001", dir: true, refused: true},
		{name: "directory newer than the readable snapshot", entry: "snapshot-00000003", dir: true, closeOnce: true, refused: true},
		{name: "directory as new as the readable snapshot", entry: "snapshot-00000002", dir: true, closeOnce: true, refused: true},
		{name: "directory a readable snapshot supersedes", entry: "snapshot-00000001", dir: true, closeOnce: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, PersistOptions{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendWorkload(s, 2, 5)
			if tc.closeOnce {
				err = s.Persister().Close()
			} else if err = s.Persister().Flush(); err == nil {
				s.Persister().Abandon()
			}
			if err != nil {
				t.Fatal(err)
			}
			foreign := filepath.Join(dir, tc.entry)
			file := foreign
			if tc.dir {
				if err := os.Mkdir(foreign, 0o755); err != nil {
					t.Fatal(err)
				}
				file = filepath.Join(foreign, "manifest.json")
			}
			if err := os.WriteFile(file, []byte(`{"probes":[]}`), 0o644); err != nil {
				t.Fatal(err)
			}

			got, err := Open(dir, PersistOptions{})
			if tc.refused {
				if err == nil || got != nil {
					t.Fatalf("Open = (%v, %v), want no store and an error", got, err)
				}
				if !strings.Contains(err.Error(), foreign) || !strings.Contains(err.Error(), "remove the entry") {
					t.Errorf("error %q does not name %s and the remedy", err, foreign)
				}
				// The failed Open released the directory; following the
				// remedy opens.
				if err := os.RemoveAll(foreign); err != nil {
					t.Fatal(err)
				}
				got, err = Open(dir, PersistOptions{})
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if g := got.GlobalGeneration(); g != s.GlobalGeneration() {
				t.Errorf("recovered generation = %d, want %d", g, s.GlobalGeneration())
			}
			got.Persister().Close()
		})
	}
}

// TestSnapshotIsOneFile: however many snapshots a directory has seen, it
// holds one snapshot file and nothing else of them — no directory, no
// older file, and not the .tmp a snapshot that crashed mid-write left,
// which Open ignores whatever its SEQ and the next compaction removes.
func TestSnapshotIsOneFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	oracle := New()
	appendWorkload(s, 3, 4)
	appendWorkload(oracle, 3, 4)
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	debris := filepath.Join(dir, snapshotName(9)+tmpSuffix)
	if err := os.WriteFile(debris, []byte(snapMagic+"half a snapsh"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open beside a leftover .tmp: %v", err)
	}
	assertStoresEqual(t, s, oracle)
	for i := 0; i < 3; i++ {
		appendWorkload(s, 4, 3)
		if err := s.Persister().Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if _, err := os.Stat(debris); !os.IsNotExist(err) {
			t.Fatalf("the leftover .tmp survived a compaction: stat err = %v", err)
		}
	}
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		names = append(names, ent.Name())
		if ent.IsDir() != (ent.Name() == "wal") {
			t.Errorf("%s: directory = %v", ent.Name(), ent.IsDir())
		}
	}
	snap, err := findLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"LOCK", "meta.json", filepath.Base(snap.path), "wal"}; !reflect.DeepEqual(names, want) {
		t.Errorf("data directory holds %v, want %v", names, want)
	}
}

func TestOpenRejectsBadWALDir(t *testing.T) {
	// Before the single log every market had its own segment directory,
	// wal/<market>/seg-<epoch>-<idx>.wal, which this version cannot read.
	// A segment the snapshot covers is a compaction leftover: the
	// directory opens unchanged and the next compaction removes it. A
	// segment the snapshot does not cover holds records only it has; Open
	// must refuse it by path rather than present their loss as success.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 2, 5)
	if err := s.Persister().Close(); err != nil { // snapshot-00000002, empty wal/
		t.Fatalf("Close: %v", err)
	}
	oldSegment := func(epoch uint64) string {
		t.Helper()
		shardDir := filepath.Join(dir, "wal", url.PathEscape(persistMarket(0).String()))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(shardDir, fmt.Sprintf("seg-%08d-00000001.wal", epoch))
		frame := frameOf([]byte("SPOTWAL1"), PricePoint{At: persistBase, Price: 1})
		if err := os.WriteFile(seg, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		return seg
	}

	covered := oldSegment(1) // compaction's leftover: epoch 1 < snapshot 2
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open beside a covered old-layout segment: %v", err)
	}
	assertStoresEqual(t, re, s)
	if err := re.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Dir(covered)); !os.IsNotExist(err) {
		t.Errorf("the covered old-layout directory survived a snapshot's compaction: stat err = %v", err)
	}

	uncovered := oldSegment(9)
	got, err := Open(dir, PersistOptions{})
	if err == nil || got != nil {
		t.Fatalf("Open = (%v, %v), want no store and an error", got, err)
	}
	if !strings.Contains(err.Error(), uncovered) || !strings.Contains(err.Error(), "remove the segment's directory") {
		t.Errorf("error %q does not name %s and the remedy", err, uncovered)
	}
	// The failed Open released the directory.
	if err := os.RemoveAll(filepath.Dir(uncovered)); err != nil {
		t.Fatal(err)
	}
	re, err = Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open after removing the segment: %v", err)
	}
	re.Persister().Close()
}

// TestNoWritesAfterClose: Close releases the data directory — another
// process may own it by the time a late caller flushes — so afterwards
// Flush, Snapshot and SaveCursor all refuse with the same error, appends
// are dropped from the log instead of buffered (the store itself stays
// readable and writable in memory), and not a byte of the directory
// changes.
func TestNoWritesAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	appendWorkload(s, 2, 5)
	if err := p.SaveCursor([]byte(`{"x":1}`)); err != nil {
		t.Fatalf("SaveCursor: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	owner, err := Open(dir, PersistOptions{}) // the directory's next owner
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	defer owner.Persister().Close()
	want := dirListing(t, dir)

	// Enough late appends to cross the log's inline-flush threshold.
	gen := s.GlobalGeneration()
	for i := 0; i < 4; i++ {
		appendWorkload(s, 2, 600)
	}
	if s.GlobalGeneration() == gen {
		t.Fatal("the closed store stopped accepting in-memory appends")
	}
	if n := len(p.log.pending); n != 0 {
		t.Errorf("the closed log buffered %d bytes it can never write", n)
	}
	for name, err := range map[string]error{
		"Flush":      p.Flush(),
		"Snapshot":   p.Snapshot(),
		"SaveCursor": p.SaveCursor([]byte(`{"x":2}`)),
	} {
		if !errors.Is(err, errPersisterClosed) {
			t.Errorf("%s after Close = %v, want %v", name, err, errPersisterClosed)
		}
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close = %v, want the first one's nil", err)
	}
	if got := dirListing(t, dir); got != want {
		t.Errorf("the data directory changed after Close:\n got: %.600s\nwant: %.600s", got, want)
	}
}
