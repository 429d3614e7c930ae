package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
)

var (
	feedM1 = market.SpotID{Zone: "us-east-1a", Type: "c3.large", Product: market.ProductLinux}
	feedM2 = market.SpotID{Zone: "us-east-1b", Type: "m3.large", Product: market.ProductWindows}
	feedM3 = market.SpotID{Zone: "eu-west-1a", Type: "c3.large", Product: market.ProductLinux}
)

func feedT(min int) time.Time {
	return time.Date(2015, 9, 1, 0, min, 0, 0, time.UTC)
}

// drain reads the subscription until it is caught up (or ended).
func drain(s *Subscription) []Event {
	var out []Event
	for {
		evs, live := s.Next(nil)
		out = append(out, evs...)
		if !live || len(evs) == 0 {
			return out
		}
	}
}

// smallRingStore is a store whose feed ring holds ringCap events.
func smallRingStore(ringCap int) *Store {
	s := New()
	s.feed = newFeed(&s.gen, ringCap)
	return s
}

func kinds(evs []Event) []EventKind {
	out := make([]EventKind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

func TestFeedPublishesTypedEvents(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()

	s.AppendProbe(ProbeRecord{At: feedT(1), Market: feedM1, Kind: ProbeOnDemand, Rejected: true})
	s.AppendSpike(SpikeEvent{At: feedT(2), Market: feedM1, Price: 0.5, Ratio: 1.4})
	s.RecordPrice(feedM1, PricePoint{At: feedT(3), Price: 0.25})
	s.AppendRevocation(RevocationRecord{At: feedT(4), Market: feedM1, Bid: 0.3, Held: time.Hour})
	s.AppendBidSpread(BidSpreadRecord{At: feedT(5), Market: feedM1, Published: 0.2, Intrinsic: 0.1, Attempts: 3})
	s.AppendProbe(ProbeRecord{At: feedT(6), Market: feedM1, Kind: ProbeOnDemand}) // closes the outage

	evs := drain(sub)
	want := []EventKind{
		EventProbe, EventOutageOpen, EventSpike, EventPrice,
		EventRevocation, EventBidSpread, EventProbe, EventOutageClose,
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(evs), kinds(evs), len(want))
	}
	var lastSeq uint64
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Fatalf("event %d kind = %v, want %v (all: %v)", i, ev.Kind, want[i], kinds(evs))
		}
		if ev.Market != feedM1 {
			t.Errorf("event %d market = %v, want %v", i, ev.Market, feedM1)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("event %d seq %d not strictly increasing after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	// Payload arms match the kind.
	if evs[0].Probe == nil || !evs[0].Probe.Rejected {
		t.Error("probe event missing its record payload")
	}
	if o := evs[1].Outage; o == nil || *o != (OutageRecord{Market: feedM1, Kind: ProbeOnDemand, Start: feedT(1)}) || evs[1].At != feedT(1) {
		t.Errorf("outage-open event at %v carries %+v, want the open interval at its start", evs[1].At, o)
	}
	if o := evs[7].Outage; o == nil || *o != (OutageRecord{Market: feedM1, Kind: ProbeOnDemand, Start: feedT(1), End: feedT(6)}) || evs[7].At != feedT(6) {
		t.Errorf("outage-close event at %v carries %+v, want the closed interval at its end", evs[7].At, o)
	}
	// The final event's generation matches the store's: nothing unseen.
	if g := evs[len(evs)-1].Gen; g != s.GlobalGeneration() {
		t.Errorf("last event gen = %d, want global generation %d", g, s.GlobalGeneration())
	}
}

func TestFeedScopeAndKindFilters(t *testing.T) {
	s := New()
	f := s.Feed()
	global := f.Subscribe(SubscribeOptions{})
	region := f.Subscribe(SubscribeOptions{Filter: EventFilter{Region: "us-east-1"}})
	regionProduct := f.Subscribe(SubscribeOptions{Filter: EventFilter{Region: "us-east-1", Product: market.ProductWindows}})
	oneMarket := f.Subscribe(SubscribeOptions{Filter: EventFilter{Market: feedM3}})
	spikesOnly := f.Subscribe(SubscribeOptions{Filter: EventFilter{Kinds: []EventKind{EventSpike}}})
	defer func() {
		for _, sub := range []*Subscription{global, region, regionProduct, oneMarket, spikesOnly} {
			sub.Close()
		}
	}()

	s.AppendSpike(SpikeEvent{At: feedT(1), Market: feedM1, Ratio: 1.2})
	s.AppendSpike(SpikeEvent{At: feedT(2), Market: feedM2, Ratio: 1.5})
	s.AppendSpike(SpikeEvent{At: feedT(3), Market: feedM3, Ratio: 2.0})
	s.AppendProbe(ProbeRecord{At: feedT(4), Market: feedM3, Kind: ProbeSpot})

	if got := len(drain(global)); got != 4 {
		t.Errorf("global subscriber saw %d events, want 4", got)
	}
	if got := len(drain(region)); got != 2 {
		t.Errorf("region subscriber saw %d events, want 2 (us-east-1 spikes)", got)
	}
	rp := drain(regionProduct)
	if len(rp) != 1 || rp[0].Market != feedM2 {
		t.Errorf("region+product subscriber saw %v, want just %v's spike", rp, feedM2)
	}
	om := drain(oneMarket)
	if len(om) != 2 || om[0].Market != feedM3 || om[1].Market != feedM3 {
		t.Errorf("market subscriber saw %v, want %v's spike+probe", kinds(om), feedM3)
	}
	so := drain(spikesOnly)
	if len(so) != 3 || so[0].Kind != EventSpike {
		t.Errorf("kind-filtered subscriber saw %v, want 3 spikes", kinds(so))
	}
}

func TestFeedZeroSubscribersBuildsNoEvents(t *testing.T) {
	s := New()
	s.AppendSpike(SpikeEvent{At: feedT(1), Market: feedM1, Ratio: 1.2})
	if st := s.Feed().Stats(); st.Published != 0 || st.LastSeq != 0 {
		t.Fatalf("events were published with no subscribers: %+v", st)
	}
}

// A stalled subscriber must never stall appends or cost the publisher
// anything per event: the ring simply overwrites what it has not read, and
// its next read gets exactly one terminal marker carrying the position it
// had read through. A position the ring still covers resumes exactly.
func TestFeedSlowSubscriberLagsWithoutBlocking(t *testing.T) {
	s := smallRingStore(16)
	s.Feed().Arm()
	defer s.Feed().Disarm()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()

	spikes := func(from, to int) {
		for i := from; i < to; i++ {
			s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
		}
	}
	spikes(0, 4)
	first := drain(sub)
	if len(first) != 4 {
		t.Fatalf("read %d events, want 4", len(first))
	}

	// Never read again: 96 more events lap the 16-slot ring six times.
	done := make(chan struct{})
	go func() {
		defer close(done)
		spikes(4, 100)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appends blocked behind a stalled subscriber")
	}
	if st := s.Feed().Stats(); st.Lagged != 0 || st.Dropped != 0 {
		t.Errorf("feed stats = %+v before the stalled reader reads: the publisher must not account per subscriber", st)
	}

	evs := drain(sub)
	if len(evs) != 1 || evs[0].Kind != EventLagged {
		t.Fatalf("overrun subscriber read %v, want exactly the lagged marker", kinds(evs))
	}
	last := evs[0]
	if want := first[3]; last.Seq != want.Seq || last.Gen != want.Gen || !last.At.Equal(want.At) {
		t.Errorf("lagged marker = (seq %d, gen %d, at %v), want the last delivered (%d, %d, %v)",
			last.Seq, last.Gen, last.At, want.Seq, want.Gen, want.At)
	}
	if evs, live := sub.Next(nil); len(evs) != 0 || live {
		t.Errorf("Next after the marker = (%v, %v), want nothing and not live", kinds(evs), live)
	}
	// 100 published, 4 read, 16 still in the ring: 80 overwritten unread.
	if st := s.Feed().Stats(); st.Lagged != 1 || st.Dropped != 80 || st.Published != 100 {
		t.Errorf("feed stats = %+v, want lagged=1 dropped=80 published=100", st)
	}

	// The marker's position is gone from the ring: a resume from it must
	// report a gap. One the ring still covers replays exactly.
	resumed, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, last.Seq, last.Gen)
	resumed.Close()
	if mode != ResumeGap {
		t.Fatalf("resume from the overwritten position = %v, want ResumeGap", mode)
	}
	spikes(100, 101)
	fresh := s.Feed().Subscribe(SubscribeOptions{})
	defer fresh.Close()
	spikes(101, 109)
	pos := drain(fresh)[2]
	resumed, mode = s.Feed().SubscribeFrom(SubscribeOptions{}, pos.Seq, pos.Gen)
	defer resumed.Close()
	if mode != ResumeRing {
		t.Fatalf("resume mode = %v, want ResumeRing", mode)
	}
	replay := drain(resumed)
	if len(replay) != 5 {
		t.Fatalf("ring replay = %d events, want 5", len(replay))
	}
	for i, ev := range replay {
		if want := pos.Seq + 1 + uint64(i); ev.Seq != want {
			t.Fatalf("replay[%d].Seq = %d, want %d (gap or duplicate)", i, ev.Seq, want)
		}
	}
}

// feedWait bounds how long a test waits, once its writers are done, for a
// reader to see every event they published.
const feedWait = 10 * time.Second

// awaitReader waits up to feedWait for a reader's done; past that it closes
// stop and waits for the reader to return, so the test reads and reports
// the reader's counts rather than hanging until the package times out.
func awaitReader(done, stop chan struct{}) {
	select {
	case <-done:
	case <-time.After(feedWait):
		close(stop)
		<-done
	}
}

// Race-exercised: concurrent multi-market appends with one subscriber that
// never reads and one that drains as it is woken. Run under -race.
func TestFeedOverflowUnderConcurrentAppends(t *testing.T) {
	s := smallRingStore(4096)
	blocked := s.Feed().Subscribe(SubscribeOptions{})
	defer blocked.Close()
	healthy := s.Feed().Subscribe(SubscribeOptions{})
	defer healthy.Close()

	const (
		writers   = 8
		perWriter = 200
	)
	var healthyCount int
	var lastSeq uint64
	done, stop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Event, 0, 64)
		for {
			select {
			case <-healthy.Ready():
			case <-stop:
				return
			}
			evs, _ := healthy.Next(buf)
			for _, ev := range evs {
				if ev.Seq != lastSeq+1 {
					t.Errorf("draining subscriber read seq %d after %d", ev.Seq, lastSeq)
				}
				lastSeq = ev.Seq
			}
			healthyCount += len(evs)
			if healthyCount == writers*perWriter*2 {
				return
			}
		}
	}()

	markets := []market.SpotID{feedM1, feedM2, feedM3}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := markets[w%len(markets)]
			app := s.Appender(id)
			// Writers share markets, so they share one stamp: any
			// interleaving of their rounds keeps each market in time order.
			for i := 0; i < perWriter; i++ {
				app.AppendProbes([]ProbeRecord{
					{At: feedT(0), Market: id, Kind: ProbeSpot},
					{At: feedT(0), Market: id, Kind: ProbeOnDemand},
				})
			}
		}(w)
	}
	wg.Wait()
	awaitReader(done, stop)

	if want := writers * perWriter * 2; healthyCount != want {
		t.Fatalf("draining subscriber saw %d events, want %d", healthyCount, want)
	}
	// 3,200 events never lapped the 4,096-slot ring, so the subscriber that
	// never read is merely behind. Lap it: its one read is the marker, at
	// the position it subscribed at.
	healthy.Close()
	app := s.Appender(feedM1)
	for i := 0; i < 1000; i++ {
		app.AppendProbes([]ProbeRecord{{At: feedT(i), Market: feedM1, Kind: ProbeSpot}})
	}
	evs := drain(blocked)
	if len(evs) != 1 || evs[0].Kind != EventLagged || evs[0].Seq != 0 {
		t.Fatalf("overrun subscriber read %v (first seq %d), want one lagged marker at seq 0", kinds(evs), evs[0].Seq)
	}
	if n, want := s.ProbeCount(), writers*perWriter*2+1000; n != want {
		t.Fatalf("store holds %d probes, want %d — appends were lost or stalled", n, want)
	}
}

func TestFeedResumeLiveWhenNothingMissed(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	s.AppendSpike(SpikeEvent{At: feedT(1), Market: feedM1, Ratio: 1.2})
	evs := drain(sub)
	if len(evs) != 1 {
		t.Fatal("setup: expected one event")
	}
	sub.Close()

	// Nothing appended since: the resume attaches live with no backlog,
	// even though the subscriber count dropped to zero in between.
	resumed, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer resumed.Close()
	if backlog := drain(resumed); mode != ResumeLive || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeLive with none", mode, len(backlog))
	}
}

func TestFeedResumeFallsBackAfterQuietGap(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	s.AppendSpike(SpikeEvent{At: feedT(1), Market: feedM1, Ratio: 1.2})
	evs := drain(sub)
	sub.Close()

	// Records land while nobody subscribes: no events exist for them, so
	// no ring replay can be exact and the resume must report the gap.
	s.AppendSpike(SpikeEvent{At: feedT(2), Market: feedM1, Ratio: 1.5})

	resumed, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer resumed.Close()
	if backlog := drain(resumed); mode != ResumeGap || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeGap", mode, len(backlog))
	}
}

func TestFeedResumeForeignSequenceFallsBack(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()
	s.AppendSpike(SpikeEvent{At: feedT(1), Market: feedM1, Ratio: 1.2})
	drain(sub)

	// A sequence from another process life (larger than anything this
	// feed assigned) with a stale generation cannot be in the ring.
	resumed, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, 999999, 999)
	defer resumed.Close()
	if backlog := drain(resumed); mode != ResumeGap || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeGap", mode, len(backlog))
	}

	// But a foreign sequence whose generation equals the store's current
	// one proves nothing was missed (the durable-restart shape: record
	// counts survive, the sequence space does not) and attaches live.
	live, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, 999999, s.GlobalGeneration())
	defer live.Close()
	if backlog := drain(live); mode != ResumeLive || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeLive on matching generation", mode, len(backlog))
	}
}

// A resume position whose sequence collides with this process life's
// sequence space but whose generation disagrees (a pre-restart token
// meeting a fresh feed that already republished that many events) must
// not claim exact ring replay.
func TestFeedResumeCrossLifeSeqCollisionFallsBack(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()
	for i := 0; i < 5; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
	}
	evs := drain(sub)
	if len(evs) != 5 {
		t.Fatal("setup: want 5 events")
	}

	// seq 3 exists in the ring, but the claimed generation belongs to
	// another life.
	resumed, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[2].Seq, 999)
	defer resumed.Close()
	if backlog := drain(resumed); mode != ResumeGap || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeGap on generation mismatch", mode, len(backlog))
	}
	// The genuine position still replays exactly.
	ok, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[2].Seq, evs[2].Gen)
	defer ok.Close()
	if backlog := drain(ok); mode != ResumeRing || len(backlog) != 2 {
		t.Fatalf("resume = (%v, %d backlog), want ResumeRing with 2", mode, len(backlog))
	}
}

// Records appended while nobody subscribes (and the feed is not armed) are
// not evented; the next subscriber must drop the stale ring so a later
// resume cannot replay "exactly" across that invisible gap — also when the
// last subscriber to leave had been overrun.
func TestFeedColdGapWithLaggedSubscriberResetsRing(t *testing.T) {
	s := smallRingStore(4)
	lagged := s.Feed().Subscribe(SubscribeOptions{})
	for i := 0; i < 10; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
	}
	pos := s.Feed().Stats() // the newest event's position, still in the ring
	if evs := drain(lagged); len(evs) != 1 || evs[0].Kind != EventLagged {
		t.Fatalf("setup: subscriber read %v, want the lagged marker", kinds(evs))
	}
	lagged.Close()
	s.AppendSpike(SpikeEvent{At: feedT(10), Market: feedM1, Ratio: 1.2}) // cold: no event

	fresh := s.Feed().Subscribe(SubscribeOptions{})
	defer fresh.Close()
	s.AppendSpike(SpikeEvent{At: feedT(11), Market: feedM1, Ratio: 1.2})
	if got := len(drain(fresh)); got != 1 {
		t.Fatalf("fresh subscriber saw %d events, want 1", got)
	}

	resumed, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, pos.LastSeq, pos.LastGen)
	defer resumed.Close()
	if backlog := drain(resumed); mode != ResumeGap || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeGap across the cold gap", mode, len(backlog))
	}
}

// A resume point the ring has overwritten reports a gap; one
// inside the retained window replays exactly; and a live reader that the
// ring laps mid-read is told so instead of being handed a gapped sequence.
func TestFeedRingEvictionForcesWindowFallback(t *testing.T) {
	s := smallRingStore(8)
	f := s.Feed()
	sub := f.Subscribe(SubscribeOptions{})
	defer sub.Close()

	var evs []Event
	for i := 0; i < 32; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
		evs = append(evs, drain(sub)...)
	}
	if len(evs) != 32 {
		t.Fatal("setup: want 32 live events")
	}
	// Resuming from the first event: the ring only holds the last 8.
	old, mode := f.SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer old.Close()
	if backlog := drain(old); mode != ResumeGap || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeGap with none after eviction", mode, len(backlog))
	}
	// Resuming from inside the retained window is exact.
	in, mode := f.SubscribeFrom(SubscribeOptions{}, evs[25].Seq, evs[25].Gen)
	defer in.Close()
	if mode != ResumeRing {
		t.Fatalf("resume mode = %v, want ResumeRing", mode)
	}
	<-in.Ready() // a ring resume starts with its wake pending
	if got, _ := in.Next(make([]Event, 0, 2)); len(got) != 2 || got[1].Seq != evs[27].Seq {
		t.Fatalf("first chunk = %v, want the 2 events after the resume point", got)
	}
	select {
	case <-in.Ready():
	default:
		t.Fatal("a read that left events behind must leave a wake pending")
	}
	// 2 of the 6 replayed; the next 7 appends overwrite 3 of the other 4.
	for i := 32; i < 39; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
	}
	got := drain(in)
	if len(got) != 1 || got[0].Kind != EventLagged || got[0].Seq != evs[27].Seq || got[0].Gen != evs[27].Gen {
		t.Fatalf("lapped reader read %+v, want one lagged marker at seq %d", got, evs[27].Seq)
	}
	if st := f.Stats(); st.Dropped != 3 || st.Lagged != 1 {
		t.Errorf("feed stats = %+v, want dropped=3 lagged=1", st)
	}
}

// An armed feed keeps the ring hot across zero-subscriber gaps, so a
// reconnect after a disconnection still resumes exactly.
func TestFeedArmKeepsRingHotAcrossSubscriberGaps(t *testing.T) {
	s := New()
	f := s.Feed()
	f.Arm()
	defer f.Disarm()

	sub := f.Subscribe(SubscribeOptions{})
	s.AppendSpike(SpikeEvent{At: feedT(1), Market: feedM1, Ratio: 1.2})
	evs := drain(sub)
	if len(evs) != 1 {
		t.Fatal("setup: want one live event")
	}
	sub.Close()

	// Records landing with no subscribers are still evented (armed), so
	// the resume replays them from the ring — exactly.
	s.AppendSpike(SpikeEvent{At: feedT(2), Market: feedM1, Ratio: 1.5})
	s.AppendSpike(SpikeEvent{At: feedT(3), Market: feedM1, Ratio: 1.7})

	resumed, mode := f.SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer resumed.Close()
	backlog := drain(resumed)
	if mode != ResumeRing || len(backlog) != 2 {
		t.Fatalf("resume = (%v, %d backlog), want ResumeRing with the 2 gap events", mode, len(backlog))
	}
	if backlog[0].Seq != evs[0].Seq+1 || backlog[1].Seq != evs[0].Seq+2 {
		t.Fatalf("backlog seqs = %d,%d, want contiguous after %d", backlog[0].Seq, backlog[1].Seq, evs[0].Seq)
	}
}

func TestSubscriptionCloseIsIdempotentUnderPublish(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
		}
	}()
	go func() {
		defer wg.Done()
		sub.Close()
		sub.Close()
	}()
	wg.Wait()
	if n := s.Feed().Stats().Subscribers; n != 0 {
		t.Fatalf("subscribers = %d after close, want 0", n)
	}
}

// The prober's price sweep: thousands of one-event rounds back to back,
// faster than any reader. A subscriber that reads only afterwards is
// behind, not lagged — the ring held every event all along.
func TestFeedPriceSweepNeverLagsAnUnreadSubscriber(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()
	const sweep = 2000
	for i := 0; i < sweep; i++ {
		id := market.SpotID{Zone: "us-east-1a", Type: market.InstanceType(fmt.Sprintf("t%d.large", i)), Product: market.ProductLinux}
		s.RecordPrice(id, PricePoint{At: feedT(1), Price: 0.1})
	}
	evs := drain(sub)
	if len(evs) != sweep {
		t.Fatalf("read %d events (last %v), want all %d", len(evs), evs[len(evs)-1].Kind, sweep)
	}
	for i, ev := range evs {
		if ev.Kind != EventPrice || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d = (%v, seq %d), want price at seq %d", i, ev.Kind, ev.Seq, i+1)
		}
	}
	if st := s.Feed().Stats(); st.Dropped != 0 || st.Lagged != 0 {
		t.Fatalf("feed stats = %+v, want nothing dropped or lagged", st)
	}
}

// Differential, run under -race: concurrent appenders over several markets,
// readers with random filters, chunk sizes, stalls and reconnects on a
// small ring, against an oracle of everything published. Whatever a reader
// was handed between two positions must be exactly the filter of the
// oracle between them — no gap, duplicate or reorder — a ring resume must
// continue that sequence, and a marker must sit where the reader stopped.
func TestFeedReadersMatchOracleUnderConcurrentAppends(t *testing.T) {
	const (
		ringCap   = 64
		writers   = 4
		perWriter = 1500
		readers   = 6
		total     = writers * perWriter
	)
	s := smallRingStore(ringCap)
	f := s.Feed()

	// The oracle reads everything. Writers take a token per event and the
	// oracle returns it once read, so the oracle is never a ring behind:
	// the harness waits on it, the feed never does.
	tokens := make(chan struct{}, ringCap)
	oracle := make([]Event, 0, total)
	osub := f.Subscribe(SubscribeOptions{})
	defer osub.Close()
	oracleDone, stopOracle := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(oracleDone)
		buf := make([]Event, 0, ringCap)
		for len(oracle) < total {
			select {
			case <-osub.Ready():
			case <-stopOracle:
				return
			}
			evs, live := osub.Next(buf)
			if !live {
				t.Error("the paced oracle reader was overrun")
				go func() { // keep the writers moving so the test ends
					for range tokens {
					}
				}()
				return
			}
			oracle = append(oracle, evs...)
			for range evs {
				<-tokens
			}
		}
	}()

	markets := []market.SpotID{feedM1, feedM2, feedM3,
		{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductWindows}}
	var wg sync.WaitGroup
	var writersDone atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// One stamp for every record: writers share markets, and any
				// interleaving of their rounds keeps each market in time order.
				id, at := markets[(w+i)%len(markets)], feedT(0)
				tokens <- struct{}{}
				switch i % 3 {
				case 0:
					s.AppendSpike(SpikeEvent{At: at, Market: id, Ratio: 1.1})
				case 1:
					s.RecordPrice(id, PricePoint{At: at, Price: 0.1})
				default:
					s.AppendProbe(ProbeRecord{At: at, Market: id, Kind: ProbeSpot})
				}
				runtime.Gosched() // or the writers and the oracle finish between themselves
			}
		}(w)
	}

	filters := []EventFilter{
		{},
		{Region: "us-east-1"},
		{Market: feedM3},
		{Product: market.ProductWindows, Kinds: []EventKind{EventPrice, EventProbe}},
		{Kinds: []EventKind{EventSpike}},
	}
	// A segment is what one reader was handed while reading from position
	// start through position end.
	type segment struct {
		start, end uint64
		got        []Event
	}
	type result struct {
		filter          EventFilter
		segs            []segment
		markers, resume int
	}
	results := make([]result, readers)
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 1))
			res := &results[r]
			res.filter = filters[r%len(filters)]
			opts := SubscribeOptions{Filter: res.filter}
			sub := f.Subscribe(opts)
			defer func() { sub.Close() }()
			seg := segment{start: sub.cursor}
			// resubscribe closes the segment at end and, unless the new
			// subscription continues it exactly, opens the next one.
			resubscribe := func(end, seq, gen uint64) ResumeMode {
				sub.Close()
				var mode ResumeMode
				sub, mode = f.SubscribeFrom(opts, seq, gen)
				if mode == ResumeGap {
					seg.end = end
					res.segs = append(res.segs, seg)
					seg = segment{start: sub.cursor}
				}
				return mode
			}
			for {
				finished := writersDone.Load()
				switch n := len(seg.got); rng.Intn(4) {
				case 0: // stall while the feed moves on by up to two rings
					target := sub.cursor + uint64(rng.Intn(2*ringCap))
					for f.Stats().LastSeq < target && !writersDone.Load() {
						runtime.Gosched()
					}
				case 1: // reconnect from the last delivered event, as a client does
					if n > 0 && resubscribe(sub.cursor, seg.got[n-1].Seq, seg.got[n-1].Gen) != ResumeGap {
						res.resume++
					}
				}
				evs, live := sub.Next(make([]Event, 0, 1+rng.Intn(2*ringCap)))
				if !live {
					m := evs[len(evs)-1]
					if len(evs) != 1 || m.Kind != EventLagged || m.Seq != sub.cursor {
						t.Errorf("reader %d: ended with %v at seq %d, cursor %d; want one marker at the cursor", r, kinds(evs), m.Seq, sub.cursor)
						return
					}
					res.markers++
					if mode := resubscribe(m.Seq, m.Seq, m.Gen); mode != ResumeGap {
						t.Errorf("reader %d: resume from an overwritten position = %v, want ResumeGap", r, mode)
					}
					continue
				}
				seg.got = append(seg.got, evs...)
				if finished && len(evs) == 0 {
					seg.end = sub.cursor
					res.segs = append(res.segs, seg)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	writersDone.Store(true)
	awaitReader(oracleDone, stopOracle)
	rg.Wait()

	if len(oracle) != total {
		t.Fatalf("oracle holds %d events, want %d", len(oracle), total)
	}
	for i, ev := range oracle {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("oracle[%d].Seq = %d: the oracle itself has a gap", i, ev.Seq)
		}
	}
	var markers, resumes int
	for r, res := range results {
		markers, resumes = markers+res.markers, resumes+res.resume
		mask := res.filter.kindMask()
		for _, seg := range res.segs {
			var want []Event
			for i := seg.start; i < seg.end; i++ {
				if match(mask, res.filter, &oracle[i]) {
					want = append(want, oracle[i])
				}
			}
			if !reflect.DeepEqual(seg.got, want) {
				t.Errorf("reader %d, positions %d..%d: handed %d events, the oracle's filter has %d (or they differ)",
					r, seg.start, seg.end, len(seg.got), len(want))
			}
		}
	}
	t.Logf("%d markers, %d exact resumes", markers, resumes)
	if markers == 0 || resumes == 0 {
		t.Errorf("the run saw %d markers and %d exact resumes; the stalls and reconnects are not exercising both", markers, resumes)
	}
}

// A position just before the ring's oldest event — where the ring started
// or the event it last overwrote — resumes exactly: the whole ring is the
// gap. One event further back is overwritten and falls back.
func TestFeedResumesAtTheRingBase(t *testing.T) {
	s := smallRingStore(4)
	f := s.Feed()
	f.Arm()
	if sub, mode := f.SubscribeFrom(SubscribeOptions{}, 0, 0); mode != ResumeRing {
		t.Fatalf("resume at the start of an empty feed = %v, want ResumeRing", mode)
	} else {
		sub.Close()
	}
	var gens []uint64
	for i := 0; i < 6; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
		gens = append(gens, s.GlobalGeneration())
	}
	// Events 1..6; the ring holds 3..6, so event 2 is the base.
	sub, mode := f.SubscribeFrom(SubscribeOptions{}, 2, gens[1])
	if mode != ResumeRing {
		t.Fatalf("resume at the ring's base = %v, want ResumeRing", mode)
	}
	if evs := drain(sub); len(evs) != 4 || evs[0].Seq != 3 {
		t.Fatalf("resumed at the base, read %d events from seq %d; want the whole ring, 3..6", len(evs), evs[0].Seq)
	}
	sub.Close()
	if sub, mode := f.SubscribeFrom(SubscribeOptions{}, 1, gens[0]); mode != ResumeGap {
		t.Fatalf("resume before the base = %v, want ResumeGap", mode)
	} else {
		sub.Close()
	}
}
