package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
)

// TestColumnsArePointerFree holds the log layout's invariant: the entry
// type of every log of every family a shard holds, the element of the price
// arena, and every other field of a family struct — or of a struct a family
// points to — holds no pointer (no string, slice, map, interface or
// pointer, however nested), so the collector never scans a record.
func TestColumnsArePointerFree(t *testing.T) {
	sh := reflect.TypeOf(shard{})
	for _, name := range []string{"prices", "probes", "spikes", "bidSpreads", "revocations"} {
		f, ok := sh.FieldByName(name)
		if !ok {
			t.Fatalf("shard has no family %s", name)
		}
		for _, part := range familyParts(f.Type) {
			if part.Kind() == reflect.Slice {
				part = part.Elem()
			}
			if hasPointers(part) {
				t.Errorf("shard.%s holds %s, which contains a pointer", name, part)
			}
		}
	}
}

// familyParts returns the fields a family is made of: a pointer stands for
// what it points to, and a struct for its fields, however nested.
func familyParts(t reflect.Type) []reflect.Type {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return []reflect.Type{t}
	}
	var parts []reflect.Type
	for i := range t.NumField() {
		parts = append(parts, familyParts(t.Field(i).Type)...)
	}
	return parts
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// dictOracle generates per-market probe streams whose dictionary-backed
// fields cover the edge cases: trigger markets inside and outside the
// appended set, the zero market, the empty code, a code whose length
// prefix takes two bytes, more than 300 distinct codes, and kinds and
// triggers outside their enums. Stamps are distinct within a market and
// rise strictly in its stream.
func dictOracle(rng *rand.Rand, markets []market.SpotID, perMarket int) map[market.SpotID][]ProbeRecord {
	triggers := append([]market.SpotID{{}, {Zone: "mars-north-1a", Type: "q9.huge", Product: "Plan 9"}}, markets...)
	for i := 0; i < 40; i++ {
		triggers = append(triggers, market.SpotID{Zone: market.Zone(fmt.Sprintf("zz-%d", i)), Type: "x1.tiny", Product: "Linux/UNIX: edge"})
	}
	// The last fixed code is 160 bytes: its length prefix takes two bytes.
	codes := []string{"", "InsufficientInstanceCapacity", "a\"b<c>\x00ü", strings.Repeat("Server.InternalError/", 8)[:160]}
	for i := 0; i < 320; i++ {
		codes = append(codes, fmt.Sprintf("Code%03d", i))
	}
	kinds := []ProbeKind{ProbeOnDemand, ProbeSpot, 0, -1, 7, 1 << 40}
	trigs := []Trigger{TriggerSpike, TriggerRecheck, TriggerPeriodicOD, 0, -5, 99, -1 << 33}
	out := make(map[market.SpotID][]ProbeRecord, len(markets))
	for _, id := range markets {
		at := persistBase
		for i := 0; i < perMarket; i++ {
			at = at.Add(time.Duration(1 + rng.IntN(int(time.Minute))))
			out[id] = append(out[id], ProbeRecord{
				At: at, Market: id,
				Kind:          kinds[rng.IntN(len(kinds))],
				Trigger:       trigs[rng.IntN(len(trigs))],
				TriggerMarket: triggers[rng.IntN(len(triggers))],
				SourceKind:    kinds[rng.IntN(len(kinds))],
				SpikeRatio:    rng.Float64() * 10,
				PriceRatio:    rng.NormFloat64(),
				Rejected:      rng.IntN(3) == 0,
				Code:          codes[rng.IntN(len(codes))],
				Bid:           rng.Float64(),
				Cost:          rng.Float64() / 100,
			})
		}
	}
	return out
}

// sameProbes fails the test at the first record of got that differs from
// want, field for field.
func sameProbes(t *testing.T, path string, got, want []ProbeRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d probes, want %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: probe %d is\n%+v\nwant\n%+v", path, i, got[i], want[i])
		}
	}
}

// TestProbeDictionaryOracle appends dictOracle's streams from several
// goroutines at once (one per pair of markets, all sharing the store's
// dictionaries) into a durable store, half before a snapshot and a follower
// attach and half after, and requires the oracle back exactly through the
// accessors, its dump loaded into a fresh store, a close and reopen, and a
// Follow into a fresh store.
// One market's stream is interleaved with rounds that go back in time —
// each of its batches reversed, and its first probe a nanosecond early —
// which the leader must refuse and count, and which no other path may
// hold; windowed reads cover random sub-windows, single stamps and empty
// windows. The shape dictionary must hold one entry per distinct shape
// appended, never one per row.
func TestProbeDictionaryOracle(t *testing.T) {
	const perMarket = 120
	markets := []market.SpotID{fuzzMarket, fuzzOtherMarket}
	for i := 1; i <= 6; i++ { // persistMarket(0) is fuzzMarket
		markets = append(markets, persistMarket(i))
	}
	rng := rand.New(rand.NewPCG(35, 7))
	streams := dictOracle(rng, markets, perMarket)
	backwards := persistMarket(3)
	shapes := make(map[probeShape]bool)
	for _, rs := range streams {
		for _, r := range rs {
			shapes[probeShape{kind: r.Kind, sourceKind: r.SourceKind, trigger: r.Trigger, rejected: r.Rejected, code: r.Code}] = true
		}
	}

	// The oracle: every market's stream in market-ID order, stamps
	// canonical; the global accessors order it by time, ties by market ID.
	sorted := append([]market.SpotID(nil), markets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })
	var byMarket []ProbeRecord
	for _, id := range sorted {
		for _, r := range streams[id] {
			r.At = canonical(r.At)
			byMarket = append(byMarket, r)
		}
	}
	byTime := append([]ProbeRecord(nil), byMarket...)
	sort.SliceStable(byTime, func(i, j int) bool { return byTime[i].At.Before(byTime[j].At) })

	// Windows [from, to]: random spans around random probes, single stamps,
	// a stamp's next nanosecond, reversed spans and spans before the first
	// probe.
	type window struct{ from, to time.Time }
	var windows []window
	for i := 0; i < 60; i++ {
		at := byMarket[rng.IntN(len(byMarket))].At
		switch i % 5 {
		case 0, 1:
			from := at.Add(time.Duration(rng.Int64N(int64(2*time.Hour))) - time.Hour)
			windows = append(windows, window{from, from.Add(time.Duration(rng.Int64N(int64(3 * time.Hour))))})
		case 2:
			windows = append(windows, window{at, at})
		case 3:
			windows = append(windows, window{at.Add(1), at.Add(1)})
		case 4:
			windows = append(windows, window{at, at.Add(-time.Duration(1 + rng.Int64N(int64(time.Hour))))})
		}
	}
	windows = append(windows, window{persistBase.Add(-time.Hour), persistBase})

	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableMetrics(obs.NewRegistry())
	var refusals atomic.Uint64 // the back-in-time rounds appended
	appendHalf := func(half int) {
		var wg sync.WaitGroup
		for g := 0; g < len(markets); g += 2 {
			wg.Add(1)
			go func(g int, ids []market.SpotID) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(g), uint64(half)))
				for _, id := range ids {
					rs := streams[id][half*perMarket/2 : (half+1)*perMarket/2]
					for len(rs) > 0 {
						n := min(len(rs), 1+rng.IntN(5))
						if id == backwards && n > 1 {
							reversed := slices.Clone(rs[:n])
							slices.Reverse(reversed)
							s.AppendProbes(reversed)
							refusals.Add(1)
						}
						s.AppendProbes(rs[:n])
						if id == backwards {
							early := rs[0]
							early.At = early.At.Add(-1)
							s.AppendProbe(early)
							refusals.Add(1)
						}
						rs = rs[n:]
					}
				}
			}(g, markets[g:g+2])
		}
		wg.Wait()
	}

	appendHalf(0)
	if err := s.Persister().Snapshot(); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sub, sw := serveFollow(s, nil, &stream, persistBase)
	appendHalf(1)
	if !pumpFollow(sub, sw, persistBase) {
		t.Fatal("the feed's ring overran the follow stream")
	}
	sub.Close()

	check := func(path string, db *Store) {
		t.Helper()
		sameProbes(t, path+" Probes", db.Probes(), byTime)
		sameProbes(t, path+" ProbesInWindow", db.ProbesInWindow(persistBase, persistBase.Add(1000*time.Hour), nil), byMarket)
		for _, w := range windows {
			var want []ProbeRecord
			for _, r := range byMarket {
				if !r.At.Before(w.from) && !r.At.After(w.to) {
					want = append(want, r)
				}
			}
			sameProbes(t, fmt.Sprintf("%s ProbesInWindow[%v, %v]", path, w.from, w.to), db.ProbesInWindow(w.from, w.to, nil), want)
		}
		if got := len(db.dicts.shapes.ids); got != len(shapes) {
			t.Errorf("%s: the shape dictionary holds %d entries, want %d distinct shapes", path, got, len(shapes))
		}
		loaded, err := loadDump([]byte(dumpOf(t, db)))
		if err != nil {
			t.Fatalf("%s: load the dump: %v", path, err)
		}
		sameProbes(t, path+" dump", loaded.Probes(), byTime)
	}
	check("leader", s)
	if got, want := s.metrics.appendRefused.Value(), refusals.Load(); got != want {
		t.Errorf("leader: %d rounds refused, want the %d that went back in time", got, want)
	}

	follower := New()
	if err := follower.Follow(&stream, &testFollower{db: follower, salt: streamSalt}); err != io.EOF {
		t.Fatalf("follow: %v", err)
	}
	check("follower", follower)

	if err := s.Persister().Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Persister().Close()
	check("reopened", reopened)
}
