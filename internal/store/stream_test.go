package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"spotlight/internal/market"
)

// streamSalt is the leader salt the stream tests serve under.
const streamSalt = 0x5eed

// serveFollow opens what /v2/watch serves a follower resuming from tok (nil:
// a fresh one): the opening position, and a snapshot when the feed's ring
// cannot replay the gap. It returns the subscription the rest is read from.
func serveFollow(leader *Store, tok *Position, w io.Writer, clock time.Time) (*Subscription, *StreamWriter) {
	f := leader.Feed()
	sub, mode := f.Subscribe(SubscribeOptions{}), ResumeGap
	if tok != nil && tok.Salt == streamSalt {
		sub.Close()
		sub, mode = f.SubscribeFrom(SubscribeOptions{}, tok.Seq, tok.Gen)
	}
	st := f.Stats()
	sw := NewStreamWriter(w, Position{Salt: streamSalt, Seq: st.LastSeq, Gen: st.LastGen})
	_ = sw.Position(clock)
	if mode == ResumeGap {
		_ = sw.Snapshot(leader, clock)
	}
	return sub, sw
}

// pumpFollow writes everything the subscription holds, then a position; it
// reports false when the ring overran the subscription (the stream ends).
func pumpFollow(sub *Subscription, sw *StreamWriter, clock time.Time) bool {
	for {
		evs, live := sub.Next(nil)
		_ = sw.Events(evs)
		if !live {
			return false
		}
		if len(evs) == 0 {
			return sw.Position(clock) == nil
		}
	}
}

// testFollower keeps a follower's cursor the way internal/replica does: the
// resume token of the newest position applied, dropped by a snapshot, and —
// for a durable store — saved after a flush with the generation it covers.
type testFollower struct {
	db                 *Store
	salt               uint64
	token, saved       *Position
	savedGen           uint64
	snapshots, skipped int
}

func (f *testFollower) Hello(p Position) error {
	if p.Salt != f.salt {
		return fmt.Errorf("foreign salt %x", p.Salt)
	}
	return nil
}

func (f *testFollower) Snapshot() error {
	f.snapshots++
	f.token = nil
	f.save()
	return nil
}

func (f *testFollower) Position(p Position, _, skipped uint64) error {
	f.token, f.skipped = &p, f.skipped+int(skipped)
	f.save()
	return nil
}

func (f *testFollower) save() {
	if p := f.db.Persister(); p != nil && p.Flush() == nil {
		f.saved, f.savedGen = f.token, f.db.GlobalGeneration()
	}
}

// restart reopens a durable follower's directory, after a crash or a clean
// close, and resumes from the saved cursor if the store holds what it counts.
func (f *testFollower) restart(t *testing.T, dir string, crash bool) {
	t.Helper()
	if crash {
		f.db.Persister().Abandon()
	} else if err := f.db.Persister().Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, PersistOptions{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f.db, f.token = db, nil
	if db.GlobalGeneration() >= f.savedGen {
		f.token = f.saved
	}
}

// dumpOf writes s as a study's dump is written (experiment's
// Study.WriteDump): an opening position, then the store's image and the
// position after it. Two stores hold the same records, family by family and
// market by market, iff their dumps are equal.
func dumpOf(t testing.TB, s *Store) string {
	t.Helper()
	var b bytes.Buffer
	sw := NewStreamWriter(&b, Position{Salt: streamSalt})
	if err := sw.Position(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Snapshot(s, time.Time{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// loadDump follows a dump into a fresh store as spotlight-analyze does: the
// store is whole only once a position has followed the image and the
// stream ends there. A dump cut at a frame boundary ends in io.EOF like a
// whole one, having applied nothing.
func loadDump(dump []byte) (*Store, error) {
	s, f := New(), &dumpFollower{}
	if err := s.Follow(bytes.NewReader(dump), f); err != io.EOF {
		return nil, err
	}
	if !f.closed {
		return nil, errors.New("the dump ends before the position closing its image")
	}
	return s, nil
}

// dumpFollower hears a dump: closed once a position follows its image.
type dumpFollower struct{ image, closed bool }

func (f *dumpFollower) Hello(Position) error { return nil }
func (f *dumpFollower) Snapshot() error      { f.image = true; return nil }
func (f *dumpFollower) Position(Position, uint64, uint64) error {
	f.closed = f.image
	return nil
}

// The randomized differential: a leader on a 64-event ring takes random
// rounds — bursts that overrun the ring included — while a durable follower
// reads its follow stream over connections cut at random byte offsets,
// crashes and restarts cleanly. Every connection resumes from the
// follower's own cursor, by ring or by snapshot; at the end one uncut
// connection must leave the follower's dump and every generation equal to
// the leader's.
func TestFollowStreamDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0xf011))
			leader := smallRingStore(64)
			leader.Feed().Arm() // the serving layer keeps the ring hot between connections
			dir := t.TempDir()
			db, err := Open(dir, PersistOptions{SegmentSize: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			f := &testFollower{db: db, salt: streamSalt}
			at := persistBase
			round := func() {
				n := 1 + rng.IntN(4)
				randomRound(rng, 6, n, at).apply(leader, n)
				at = at.Add(10 * time.Minute)
			}
			for conn := 0; conn < 30; conn++ {
				var buf bytes.Buffer
				sub, sw := serveFollow(leader, f.token, &buf, at)
				for burst := rng.IntN(5); burst > 0; burst-- {
					n := 1 + rng.IntN(10)
					if rng.IntN(8) == 0 {
						n = 40 // past the ring
					}
					for ; n > 0; n-- {
						round()
					}
					if !pumpFollow(sub, sw, at) {
						break
					}
				}
				sub.Close()
				cut := buf.Len()
				if rng.IntN(3) > 0 {
					cut = rng.IntN(buf.Len() + 1)
				}
				if err := f.db.Follow(bytes.NewReader(buf.Bytes()[:cut]), f); errors.Is(err, ErrStreamGap) {
					f.token = nil
				} else if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("connection %d: %v", conn, err)
				}
				switch rng.IntN(6) {
				case 0:
					f.restart(t, dir, true)
				case 1:
					f.restart(t, dir, false)
				}
			}
			var buf bytes.Buffer
			sub, sw := serveFollow(leader, f.token, &buf, at)
			pumpFollow(sub, sw, at)
			sub.Close()
			if err := f.db.Follow(&buf, f); err != io.EOF {
				t.Fatalf("final connection: %v", err)
			}
			if got, want := dumpOf(t, f.db), dumpOf(t, leader); got != want {
				t.Fatalf("follower dump differs from the leader's:\n got: %.300s\nwant: %.300s", got, want)
			}
			if got, want := f.db.GlobalGeneration(), leader.GlobalGeneration(); got != want {
				t.Fatalf("follower generation %d, leader %d", got, want)
			}
			for _, id := range leader.Markets() {
				if got, want := f.db.Generation(id), leader.Generation(id); got != want {
					t.Fatalf("%v: follower generation %d, leader %d", id, got, want)
				}
			}
			t.Logf("%d snapshots, %d frames skipped as held", f.snapshots, f.skipped)
			f.db.Persister().Close()
		})
	}
}

// The gate race: a round reads the closed feed gate, a follower subscribes
// and the snapshot is cut, and only then does the round land. Its records
// are in neither the snapshot nor — without the gate's second read under
// the shard lock — the feed, and the follower would never see them.
func TestFollowStreamCoversARoundRacingTheSnapshot(t *testing.T) {
	leader := New()
	id := persistMarket(0)
	leader.AppendSpike(SpikeEvent{At: persistBase, Market: id, Ratio: 1.5})
	sh := leader.lookup(id)

	sh.mu.Lock()
	landed := make(chan struct{})
	go func() {
		defer close(landed)
		leader.RecordPrices(id, []PricePoint{{At: persistBase.Add(time.Minute), Price: 0.3}, {At: persistBase.Add(2 * time.Minute), Price: 0.4}})
	}()
	time.Sleep(50 * time.Millisecond) // the round has read the closed gate and waits for the lock

	var buf bytes.Buffer
	sub := leader.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()
	st := leader.Feed().Stats()
	sw := NewStreamWriter(&buf, Position{Salt: streamSalt, Seq: st.LastSeq, Gen: st.LastGen})
	_ = sw.Position(persistBase)
	// The snapshot's capture of the shard, cut while the round is parked
	// (its lock is the one held here).
	c := sh.captureLocked()
	if _, err := encodeSnapshot(chunkWriter{sw}, 0, []shardCapture{c}); err != nil {
		t.Fatal(err)
	}
	_ = sw.Position(persistBase)
	sh.mu.Unlock()
	<-landed
	pumpFollow(sub, sw, persistBase)

	follower := New()
	if err := follower.Follow(&buf, &testFollower{db: follower, salt: streamSalt}); err != io.EOF {
		t.Fatalf("follow: %v", err)
	}
	if got, want := dumpOf(t, follower), dumpOf(t, leader); got != want {
		t.Fatalf("the racing round is lost:\n got: %s\nwant: %s", got, want)
	}
}

// followOracle is the ordinal rule alone, on counts: it walks a stream's
// frames as Follow does and returns the per-family record counts a follower
// that starts empty and accepts salt must end with — a snapshot raises each
// family to the image's count, a run frame counts only at its market's count
// — stopping where Follow stops. A record that would apply but goes back in
// time within its (market, family) ends the stream unapplied, as a
// damaged frame does.
func followOracle(data []byte, salt uint64) map[market.SpotID]*frameCounts {
	held := make(map[market.SpotID]*frameCounts)
	newest := make(map[market.SpotID]*[walPrice + 1]int64)
	count := func(id market.SpotID) *frameCounts {
		if held[id] == nil {
			held[id] = new(frameCounts)
			newest[id] = new([walPrice + 1]int64)
			for typ := range newest[id] {
				newest[id][typ] = math.MinInt64
			}
		}
		return held[id]
	}
	// apply counts one record frame in, unless it goes back in time.
	apply := func(id market.SpotID, typ walRecordType, body []byte) bool {
		c, at := count(id), frameStamp(typ, body, id)
		if at < newest[id][typ] {
			return false
		}
		c[typ]++
		newest[id][typ] = at
		return true
	}
	var (
		image         []byte
		run           market.SpotID
		open, inImage bool
		next          uint64
	)
	check := func(id market.SpotID) func(walRecordType, []byte) error {
		return func(typ walRecordType, body []byte) error {
			if !isRecord(typ) {
				return unknownFrame(typ)
			}
			return codecs[typ].follow(body, id, nil, nil)
		}
	}
	for off, first := 0, true; ; first = false {
		typ, body, n, err := decodeWALFrame(data[off:])
		if err == nil && inImage && typ != walSnapChunk {
			sections, err := parseSnapshot(image, 0)
			for i := 0; err == nil && i < len(sections); i++ {
				err = decodeSection(sections[i], check(sections[i].id))
			}
			if err != nil {
				return held
			}
			// Each section applies, family by family, the records past
			// the ones its market holds.
			for _, sec := range sections {
				skip := *count(sec.id)
				if decodeSection(sec, func(typ walRecordType, body []byte) error {
					if skip[typ]--; skip[typ] >= 0 || apply(sec.id, typ, body) {
						return nil
					}
					return ErrBackInTime
				}) != nil {
					return held
				}
			}
			image, inImage = nil, false
		}
		if err != nil || first && typ != walPosition {
			return held
		}
		off += n
		switch {
		case typ == walPosition:
			r := walReader{data: body}
			got := r.uvarint()
			r.uvarint()
			r.uvarint()
			r.instant()
			if r.end() != nil || first && got != salt {
				return held
			}
		case typ == walSnapChunk:
			image, open, inImage = append(image, body...), false, true
		case typ == walRunHeader:
			if run, next, err = decodeRunHeader(body, nil); err != nil {
				return held
			}
			open = true
		default:
			have := uint64(0)
			for _, v := range count(run) {
				have += uint64(v)
			}
			if !open || next > have || check(run)(typ, body) != nil {
				return held
			}
			if next == have && !apply(run, typ, body) {
				return held
			}
			next++
		}
	}
}

// frameStamp is the stamp of the record a frame of market id carries.
func frameStamp(typ walRecordType, body []byte, id market.SpotID) int64 {
	switch typ {
	case walProbe:
		return decodedStamp[ProbeRecord](body, id)
	case walSpike:
		return decodedStamp[SpikeEvent](body, id)
	case walBidSpread:
		return decodedStamp[BidSpreadRecord](body, id)
	case walRevocation:
		return decodedStamp[RevocationRecord](body, id)
	}
	return decodedStamp[PricePoint](body, id)
}

func decodedStamp[R record](body []byte, id market.SpotID) int64 {
	var r R
	_ = decode(&r, body, id, nil)
	at, _ := fields(&r)
	return stamp(*at)
}

// followedCounts reports the per-family record counts of every market s
// holds.
func followedCounts(s *Store) map[market.SpotID]frameCounts {
	out := make(map[market.SpotID]frameCounts)
	for _, sh := range s.shardList() {
		c := sh.capture()
		var n frameCounts
		for typ := walProbe; typ <= walPrice; typ++ {
			n[typ] = codecs[typ].rows(&c)
		}
		out[sh.id()] = n
	}
	return out
}

// fuzzFollowStream builds a valid follow stream and its leader: two markets,
// every record family, some of it in the snapshot a fresh follower gets and
// the rest in runs after it.
func fuzzFollowStream() ([]byte, *Store) {
	leader := New()
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	round := func(id market.SpotID, i int) {
		t := at.Add(time.Duration(i) * time.Minute)
		switch i % 5 {
		case 0:
			leader.AppendProbes([]ProbeRecord{{At: t, Market: id, Kind: ProbeOnDemand, Trigger: TriggerSpike,
				TriggerMarket: id, SourceKind: ProbeSpot, Rejected: i%3 == 0, Code: "ICE", Cost: 0.02}})
		case 1:
			leader.AppendSpikes([]SpikeEvent{{At: t, Market: id, Price: 0.9, Ratio: 1.1, Probed: true}})
		case 2:
			leader.RecordPrices(id, []PricePoint{{At: t, Price: 0.2}, {At: t.Add(time.Second), Price: 0.3}})
		case 3:
			leader.AppendBidSpreads([]BidSpreadRecord{{At: t, Market: id, Published: 0.5, Intrinsic: 0.3, Attempts: 4}})
		default:
			leader.AppendRevocations([]RevocationRecord{{At: t, Market: id, Bid: 1.1, Held: time.Hour}})
		}
	}
	for i := 0; i < 6; i++ {
		round(fuzzMarket, i)
		round(fuzzOtherMarket, i+2)
	}
	var buf bytes.Buffer
	sub, sw := serveFollow(leader, nil, &buf, at)
	for i := 6; i < 12; i++ {
		round(fuzzMarket, i)
		round(fuzzOtherMarket, i+3)
	}
	pumpFollow(sub, sw, at)
	sub.Close()
	return buf.Bytes(), leader
}

// fuzzFollowSeeds are the checked-in seed shapes: a valid stream, one torn
// mid-frame, one whose run skips a record, one of a foreign history, and
// one that continues the valid stream with a price back in time and a
// price in time after it, neither of which may apply.
func fuzzFollowSeeds() map[string][]byte {
	valid, leader := fuzzFollowStream()
	_, hello, opening, _ := decodeWALFrame(valid)
	foreign := appendWALFrame(nil, walPosition, func(b []byte) []byte {
		return append(appendUvarint(b, 0xbad), hello[len(appendUvarint(nil, streamSalt)):]...)
	})
	gap := appendRunHeader(append([]byte(nil), valid[:opening]...), fuzzMarket, 1)
	return map[string][]byte{
		"seed-valid-stream": valid,
		"seed-torn-frame":   valid[:len(valid)-5],
		"seed-ordinal-gap":  frameOf(gap, PricePoint{Price: 1}),
		"seed-foreign-salt": append(foreign, valid[opening:]...),
		"seed-back-in-time": frameOf(frameOf(appendRunHeader(slices.Clone(valid), fuzzMarket, leader.Generation(fuzzMarket)),
			PricePoint{At: time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC), Price: 1}),
			PricePoint{At: time.Date(2015, 9, 2, 0, 0, 0, 0, time.UTC), Price: 2}),
	}
}

// FuzzFollowStream feeds arbitrary bytes to a fresh follower: they must
// never panic, a record must apply exactly when the ordinal rule admits it
// (the counts match followOracle's), and the valid leader stream must
// reproduce the leader's dump.
func FuzzFollowStream(f *testing.F) {
	valid, leader := fuzzFollowStream()
	want := ""
	for _, seed := range fuzzFollowSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte(dumpOf(f, openGolden(f)))) // the golden fixture's dump: an image, then its position
	f.Fuzz(func(t *testing.T, data []byte) {
		follower := New()
		_ = follower.Follow(bytes.NewReader(data), &testFollower{db: follower, salt: streamSalt})
		got, oracle := followedCounts(follower), followOracle(data, streamSalt)
		for id, c := range oracle {
			if *c == (frameCounts{}) {
				continue
			}
			if got[id] != *c {
				t.Fatalf("%v holds %v records per family, the ordinal rule admits %v", id, got[id], *c)
			}
			delete(got, id)
		}
		if len(got) != 0 {
			t.Fatalf("records applied the ordinal rule does not admit: %v", got)
		}
		if bytes.Equal(data, valid) {
			if want == "" {
				want = dumpOf(t, leader)
			}
			if dump := dumpOf(t, follower); dump != want {
				t.Fatalf("the leader's own stream did not reproduce its dump:\n got: %.300s\nwant: %.300s", dump, want)
			}
		}
	})
}
