package store

import (
	"sync"
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

// drain collects every event currently buffered on the subscription.
func drain(s *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
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
	if evs[1].Outage == nil || !evs[1].Outage.Start.Equal(feedT(1)) {
		t.Error("outage-open event missing its interval payload")
	}
	if evs[7].Outage == nil || !evs[7].Outage.End.Equal(feedT(6)) {
		t.Error("outage-close event missing the closed interval")
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

// Once an unarmed store's only subscriber lags, the feed goes cold again:
// lagged subscriptions are terminal, so they must not keep append paths
// paying for event construction.
func TestFeedLaggedSubscriberStopsEventConstruction(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{Buffer: 2})
	defer sub.Close()
	for i := 0; i < 10; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
	}
	afterLag := s.Feed().Stats().Published
	if afterLag == 0 || afterLag >= 10 {
		t.Fatalf("published = %d, want the pre-lag events only", afterLag)
	}
	for i := 10; i < 20; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
	}
	if got := s.Feed().Stats().Published; got != afterLag {
		t.Fatalf("published grew %d -> %d after the only subscriber lagged", afterLag, got)
	}
}

// A blocked subscriber must never stall appends: the publisher marks it
// lagged, delivers one terminal marker carrying the resume position, and
// every subsequent append completes untouched. The feed is armed (the
// serving layer's configuration), so the ring keeps filling past the lag
// and the resume replays the dropped events exactly.
func TestFeedSlowSubscriberLagsWithoutBlocking(t *testing.T) {
	s := New()
	s.Feed().Arm()
	defer s.Feed().Disarm()
	sub := s.Feed().Subscribe(SubscribeOptions{Buffer: 4})
	defer sub.Close()

	// Never read: 4 buffered + the reserved marker slot, then lag.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appends blocked behind a stalled subscriber")
	}

	evs := drain(sub)
	if len(evs) != 5 {
		t.Fatalf("stalled subscriber drained %d events, want 4 + lagged marker", len(evs))
	}
	last := evs[4]
	if last.Kind != EventLagged {
		t.Fatalf("final event = %v, want lagged marker", last.Kind)
	}
	if want := evs[3].Seq; last.Seq != want {
		t.Errorf("lagged marker seq = %d, want last delivered %d", last.Seq, want)
	}
	if want := evs[3].Gen; last.Gen != want {
		t.Errorf("lagged marker gen = %d, want last delivered %d", last.Gen, want)
	}
	if sub.Dropped() == 0 {
		t.Error("Dropped() = 0 for an overflowed subscription")
	}
	st := s.Feed().Stats()
	if st.Lagged != 1 || st.Dropped == 0 {
		t.Errorf("feed stats = %+v, want lagged=1 and dropped>0", st)
	}

	// The lagged position resumes exactly: ring replay hands back
	// everything after the marker with no loss or duplication.
	resumed, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, last.Seq, last.Gen)
	defer resumed.Close()
	if mode != ResumeRing {
		t.Fatalf("resume mode = %v, want ResumeRing", mode)
	}
	if want := 100 - 4; len(backlog) != want {
		t.Fatalf("ring backlog = %d events, want %d", len(backlog), want)
	}
	for i, ev := range backlog {
		if want := last.Seq + 1 + uint64(i); ev.Seq != want {
			t.Fatalf("backlog[%d].Seq = %d, want %d (gap or duplicate)", i, ev.Seq, want)
		}
	}
}

// Race-exercised: concurrent multi-market appends with one permanently
// blocked subscriber and one draining subscriber. Run under -race.
func TestFeedOverflowUnderConcurrentAppends(t *testing.T) {
	s := New()
	blocked := s.Feed().Subscribe(SubscribeOptions{Buffer: 2})
	defer blocked.Close()
	healthy := s.Feed().Subscribe(SubscribeOptions{Buffer: 8192})
	defer healthy.Close()

	var got sync.WaitGroup
	var healthyCount int
	got.Add(1)
	go func() {
		defer got.Done()
		for range healthy.Events() {
			healthyCount++
		}
	}()

	const (
		writers   = 8
		perWriter = 200
	)
	markets := []market.SpotID{feedM1, feedM2, feedM3}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := markets[w%len(markets)]
			app := s.Appender(id)
			for i := 0; i < perWriter; i++ {
				app.AppendProbes([]ProbeRecord{
					{At: feedT(i), Market: id, Kind: ProbeSpot},
					{At: feedT(i), Market: id, Kind: ProbeOnDemand},
				})
			}
		}(w)
	}
	wg.Wait()
	healthy.Close()
	got.Wait()

	if want := writers * perWriter * 2; healthyCount != want {
		t.Errorf("draining subscriber saw %d events, want %d", healthyCount, want)
	}
	evs := drain(blocked)
	if len(evs) == 0 || evs[len(evs)-1].Kind != EventLagged {
		t.Fatalf("blocked subscriber's final event = %v, want lagged marker", kinds(evs))
	}
	if n := s.ProbeCount(); n != writers*perWriter*2 {
		t.Fatalf("store holds %d probes, want %d — appends were lost or stalled", n, writers*perWriter*2)
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
	resumed, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer resumed.Close()
	if mode != ResumeLive || backlog != nil {
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
	// no ring replay can be exact and the resume must fall back.
	s.AppendSpike(SpikeEvent{At: feedT(2), Market: feedM1, Ratio: 1.5})

	resumed, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer resumed.Close()
	if mode != ResumeWindow || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeWindow", mode, len(backlog))
	}

	// The windowed rebuild covers the gap.
	replay := s.EventsSince(feedT(2), EventFilter{})
	if len(replay) != 1 || replay[0].Kind != EventSpike || !replay[0].At.Equal(feedT(2)) {
		t.Fatalf("EventsSince replayed %v, want the quiet-gap spike", kinds(replay))
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
	resumed, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, 999999, 999)
	defer resumed.Close()
	if mode != ResumeWindow || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeWindow", mode, len(backlog))
	}

	// But a foreign sequence whose generation equals the store's current
	// one proves nothing was missed (the durable-restart shape: record
	// counts survive, the sequence space does not) and attaches live.
	live, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, 999999, s.GlobalGeneration())
	defer live.Close()
	if mode != ResumeLive || backlog != nil {
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
	resumed, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[2].Seq, 999)
	defer resumed.Close()
	if mode != ResumeWindow || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeWindow on generation mismatch", mode, len(backlog))
	}
	// The genuine position still replays exactly.
	ok, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[2].Seq, evs[2].Gen)
	defer ok.Close()
	if mode != ResumeRing || len(backlog) != 2 {
		t.Fatalf("resume = (%v, %d backlog), want ResumeRing with 2", mode, len(backlog))
	}
}

// While a terminal lagged subscription is the only one registered, the
// feed is cold and appends are not evented; a new subscriber must drop
// the stale ring so a later resume cannot replay "exactly" across that
// invisible gap.
func TestFeedColdGapWithLaggedSubscriberResetsRing(t *testing.T) {
	s := New()
	lagged := s.Feed().Subscribe(SubscribeOptions{Buffer: 2})
	defer lagged.Close()
	for i := 0; i < 10; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
	}
	evs := drain(lagged)
	if evs[len(evs)-1].Kind != EventLagged {
		t.Fatal("setup: subscriber should have lagged")
	}

	// New subscriber while the lagged one is still registered: the
	// un-evented appends (after the lag) broke ring continuity.
	fresh := s.Feed().Subscribe(SubscribeOptions{})
	defer fresh.Close()
	s.AppendSpike(SpikeEvent{At: feedT(11), Market: feedM1, Ratio: 1.2})
	if got := len(drain(fresh)); got != 1 {
		t.Fatalf("fresh subscriber saw %d events, want 1", got)
	}

	resumed, backlog, mode := s.Feed().SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer resumed.Close()
	if mode != ResumeWindow || backlog != nil {
		t.Fatalf("resume = (%v, %d backlog), want ResumeWindow across the cold gap", mode, len(backlog))
	}
}

func TestFeedRingEvictionForcesWindowFallback(t *testing.T) {
	s := New()
	f := newFeed(&s.gen, 8) // tiny ring
	s.feed = f
	sub := f.Subscribe(SubscribeOptions{Buffer: 1024})
	defer sub.Close()

	for i := 0; i < 32; i++ {
		s.AppendSpike(SpikeEvent{At: feedT(i), Market: feedM1, Ratio: 1.1})
	}
	evs := drain(sub)
	if len(evs) != 32 {
		t.Fatal("setup: want 32 live events")
	}
	// Resuming from the first event: the ring only holds the last 8.
	_, backlog, mode := f.SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	if mode != ResumeWindow {
		t.Fatalf("resume mode = %v, want ResumeWindow after eviction", mode)
	}
	if backlog != nil {
		t.Fatalf("backlog = %d events, want none", len(backlog))
	}
	// Resuming from inside the retained window is exact.
	_, backlog, mode = f.SubscribeFrom(SubscribeOptions{}, evs[25].Seq, evs[25].Gen)
	if mode != ResumeRing || len(backlog) != 6 {
		t.Fatalf("resume = (%v, %d backlog), want ResumeRing with 6", mode, len(backlog))
	}
}

func TestEventsSinceFiltersAndOrders(t *testing.T) {
	s := New()
	s.AppendProbe(ProbeRecord{At: feedT(1), Market: feedM1, Kind: ProbeOnDemand, Rejected: true})
	s.RecordPrice(feedM2, PricePoint{At: feedT(2), Price: 0.4})
	s.AppendSpike(SpikeEvent{At: feedT(3), Market: feedM3, Ratio: 1.8})
	s.AppendProbe(ProbeRecord{At: feedT(4), Market: feedM1, Kind: ProbeOnDemand}) // close

	all := s.EventsSince(feedT(0), EventFilter{})
	want := []EventKind{EventProbe, EventOutageOpen, EventPrice, EventSpike, EventProbe, EventOutageClose}
	if len(all) != len(want) {
		t.Fatalf("EventsSince = %v, want %v", kinds(all), want)
	}
	for i := 1; i < len(all); i++ {
		if all[i].At.Before(all[i-1].At) {
			t.Fatalf("EventsSince out of time order at %d: %v", i, kinds(all))
		}
	}
	for i, ev := range all {
		if ev.Kind != want[i] {
			t.Fatalf("EventsSince[%d] = %v, want %v", i, ev.Kind, want[i])
		}
	}

	// Window bound: only records at/after the cut.
	tail := s.EventsSince(feedT(3), EventFilter{})
	if len(tail) != 3 {
		t.Fatalf("EventsSince(tail) = %v, want spike + closing probe + outage-close", kinds(tail))
	}
	// Scope + kind filters apply.
	scoped := s.EventsSince(feedT(0), EventFilter{Region: "us-east-1", Kinds: []EventKind{EventPrice}})
	if len(scoped) != 1 || scoped[0].Market != feedM2 {
		t.Fatalf("scoped EventsSince = %v, want only %v's price", kinds(scoped), feedM2)
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

	resumed, backlog, mode := f.SubscribeFrom(SubscribeOptions{}, evs[0].Seq, evs[0].Gen)
	defer resumed.Close()
	if mode != ResumeRing || len(backlog) != 2 {
		t.Fatalf("resume = (%v, %d backlog), want ResumeRing with the 2 gap events", mode, len(backlog))
	}
	if backlog[0].Seq != evs[0].Seq+1 || backlog[1].Seq != evs[0].Seq+2 {
		t.Fatalf("backlog seqs = %d,%d, want contiguous after %d", backlog[0].Seq, backlog[1].Seq, evs[0].Seq)
	}
}

func TestSubscriptionCloseIsIdempotentUnderPublish(t *testing.T) {
	s := New()
	sub := s.Feed().Subscribe(SubscribeOptions{Buffer: 1})
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
