package store

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
)

// Time order is the append contract: every (market, family) series is in
// time order, so an append round that goes back in time — within itself or
// before its family's newest row — is refused whole and counted, and every
// other way in (recovery, the follow stream, a study's dump) fails on one.

// storeState is what a refused round must leave as it was: every record
// stream, every generation and rollup, and the bytes of the log.
type storeState struct {
	dump, log   string
	gen, scope  uint64
	market      uint64
	aggregates  []ScopeAggregates
	markets     int
	feedLastSeq uint64
}

func stateOf(t *testing.T, s *Store, dir string) storeState {
	t.Helper()
	if err := s.Persister().Flush(); err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, f := range logFiles(t, dir) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, b...)
	}
	id := persistMarket(0)
	return storeState{
		dump: dumpOf(t, s), log: string(log),
		gen: s.GlobalGeneration(), scope: s.GenerationOfScope(id.Region(), id.Product), market: s.Generation(id),
		aggregates:  s.RegionAggregates(persistBase.Add(30 * 24 * time.Hour)),
		markets:     len(s.Markets()),
		feedLastSeq: s.Feed().Stats().LastSeq,
	}
}

// TestBackInTimeRoundIsRefused appends rounds that go back in time through
// every append path, into a market that holds records and into one that
// holds none, and requires each refused and counted, and the store — its
// generations, rollups, feed and log — exactly as it was. A dump whose
// probes go back in time does not load.
func TestBackInTimeRoundIsRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Persister().Close()
	s.EnableMetrics(obs.NewRegistry())
	id, fresh := persistMarket(0), persistMarket(1)
	at := func(m int) time.Time { return persistBase.Add(time.Duration(m) * time.Minute) }
	probe := func(m int) ProbeRecord {
		return ProbeRecord{At: at(m), Market: id, Kind: ProbeOnDemand, Rejected: m%2 == 0}
	}
	if err := s.AppendProbes([]ProbeRecord{probe(10), probe(20), probe(20)}); err != nil {
		t.Fatalf("in-order probes: %v", err)
	}
	if err := s.RecordPrices(id, []PricePoint{{At: at(10), Price: 1}, {At: at(30), Price: 2}}); err != nil {
		t.Fatalf("in-order prices: %v", err)
	}
	s.AppendSpike(SpikeEvent{At: at(15), Market: id, Ratio: 2})
	sub := s.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()
	before := stateOf(t, s, dir)

	rounds := []struct {
		name   string
		append func() error // nil error for the paths that return none
	}{
		{"a batch stepping back within itself", func() error { return s.AppendProbes([]ProbeRecord{probe(30), probe(25)}) }},
		{"a batch before the family's newest", func() error { return s.AppendProbes([]ProbeRecord{probe(19), probe(40)}) }},
		{"one probe a nanosecond early", func() error {
			p := probe(20)
			p.At = p.At.Add(-1)
			s.AppendProbe(p)
			return nil
		}},
		{"an appender batch", func() error { s.Appender(id).AppendProbes([]ProbeRecord{probe(5)}); return nil }},
		{"a price before the series' newest", func() error { return s.RecordPrices(id, []PricePoint{{At: at(29), Price: 3}}) }},
		{"a spike", func() error { s.AppendSpike(SpikeEvent{At: at(14), Market: id}); return nil }},
		{"a new market's batch stepping back", func() error {
			return s.AppendSpikes([]SpikeEvent{{At: at(2), Market: fresh}, {At: at(1), Market: fresh}})
		}},
	}
	for i, r := range rounds {
		err := r.append()
		if err != nil && (!errors.Is(err, ErrBackInTime) || !strings.Contains(err.Error(), "us-east-1")) {
			t.Errorf("%s: error %v, want ErrBackInTime naming the market", r.name, err)
		}
		if got := s.metrics.appendRefused.Value(); got != uint64(i+1) {
			t.Errorf("%s: %d rounds refused, want %d", r.name, got, i+1)
		}
		if after := stateOf(t, s, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s changed the store:\n got %+v\nwant %+v", r.name, after, before)
		}
	}
	if evs, _ := sub.Next(nil); len(evs) != 0 {
		t.Errorf("refused rounds published %d feed events", len(evs))
	}

	// A stamp equal to the newest is in time.
	if err := s.AppendProbes([]ProbeRecord{probe(20)}); err != nil || s.Generation(id) != before.market+1 {
		t.Errorf("an equal stamp: %v, generation %d, want %d", err, s.Generation(id), before.market+1)
	}

	var img bytes.Buffer
	if _, err := encodeSnapshot(&img, 0, s.captureAll()); err != nil {
		t.Fatal(err)
	}
	swapFirstProbes(t, img.Bytes(), 0, id)
	var dump bytes.Buffer
	sw := NewStreamWriter(&dump, Position{})
	if err := errors.Join(sw.Position(persistBase), writeImage(sw, img.Bytes()), sw.Position(persistBase)); err != nil {
		t.Fatal(err)
	}
	if loaded, err := loadDump(dump.Bytes()); loaded != nil || !errors.Is(err, ErrBackInTime) || !strings.Contains(err.Error(), id.String()) {
		t.Errorf("a dump of probes back in time loaded a store: %t, and %v; want none and ErrBackInTime naming %v", loaded != nil, err, id)
	}
}

// writeImage frames a snapshot image into sw's chunk frames.
func writeImage(sw *StreamWriter, img []byte) error {
	_, err := chunkWriter{sw}.Write(img)
	return err
}

// swapFirstProbes swaps the first two probe frames of market id's section
// of snapshot image img in place: the same bytes, every checksum intact,
// the second stamped before the first.
func swapFirstProbes(t *testing.T, img []byte, seq uint64, id market.SpotID) {
	t.Helper()
	sections, err := parseSnapshot(img, seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range sections {
		if sec.id != id {
			continue
		}
		var frames [][]byte
		for off := 0; off < len(sec.frames); {
			_, _, n, err := decodeWALFrame(sec.frames[off:])
			if err != nil {
				t.Fatal(err)
			}
			frames, off = append(frames, sec.frames[off:off+n]), off+n
		}
		if typ := sec.frames[walFrameHeader]; typ != byte(walProbe) {
			t.Fatalf("the section opens with frame type %d, want probes", typ)
		}
		frames[0], frames[1] = frames[1], frames[0]
		copy(sec.frames, bytes.Join(frames, nil))
	}
}

// TestRecoveryRefusesBackInTimeFrame: a log frame or a snapshot section
// whose record goes back in time within its family passes every checksum,
// so it is neither a torn tail to cut nor anything the store may land.
// Open must fail naming the file, the market and the family, and change
// nothing on disk.
func TestRecoveryRefusesBackInTimeFrame(t *testing.T) {
	id := persistMarket(0)
	refuse := func(t *testing.T, dir, file string) {
		t.Helper()
		before := dirListing(t, dir)
		s, err := Open(dir, PersistOptions{})
		if s != nil || !errors.Is(err, ErrBackInTime) {
			t.Fatalf("Open returned a store: %t, and %v; want none and ErrBackInTime", s != nil, err)
		}
		for _, name := range []string{file, id.String(), "ProbeRecord"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not name %s", err, name)
			}
		}
		if after := dirListing(t, dir); after != before {
			t.Errorf("the refused Open changed the directory:\n got: %.600s\nwant: %.600s", after, before)
		}
	}

	t.Run("log", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		appendWorkload(s, 2, 5)
		held := s.Generation(id)
		if err := s.Persister().Flush(); err != nil {
			t.Fatal(err)
		}
		s.Persister().Abandon()
		files := logFiles(t, dir)
		file := files[len(files)-1]
		run := appendRunHeader(nil, id, held)
		run = frameOf(run, ProbeRecord{At: persistBase.Add(-time.Hour), Market: id, Kind: ProbeSpot})
		f, err := os.OpenFile(file, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(run); err != nil {
			t.Fatal(err)
		}
		f.Close()
		refuse(t, dir, file)
	})

	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		appendWorkload(s, 2, 5)
		if err := s.Persister().Close(); err != nil {
			t.Fatal(err)
		}
		snap, err := findLatestSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(snap.path)
		if err != nil {
			t.Fatal(err)
		}
		swapFirstProbes(t, img, snap.seq, id)
		if err := os.WriteFile(snap.path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		refuse(t, dir, snap.path)
	})
}
