package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// The change feed is the store's push surface: every append — single or
// batched — publishes one round of typed events (probes, price samples,
// spike crossings, revocations, bid spreads, and the outage transitions
// the probe stream derives) to the subscribers whose scope filter matches,
// in the same post-lock publish step that folds the rollup delta. One
// append batch costs one feed lock round no matter how many subscribers
// listen, and with no subscribers at all the append paths skip event
// construction entirely behind a single atomic load.
//
// Slow consumers never block an append: each subscription owns a buffered
// channel, the publisher only ever performs non-blocking sends, and a
// subscriber whose buffer fills is marked lagged — it receives one final
// EventLagged marker (a slot is reserved for it) carrying the sequence and
// generation of its last delivered event, and is then skipped until it
// resubscribes. Dropped events are counted per subscription and feed-wide.
//
// Resume is keyed by (sequence, generation): the feed keeps a bounded ring
// of recent events, so a subscriber that reconnects with its last sequence
// replays the gap exactly when the ring still covers it and the feed was
// never quiescent in between (generation continuity is checked against the
// store's global append generation). When exact replay is impossible the
// caller falls back to EventsSince, which rebuilds best-effort events from
// the shards' windowed indexes.

// EventKind names one change-feed event family.
type EventKind uint8

// Change-feed event kinds. EventLagged is the overflow marker a slow
// subscriber receives instead of the events it missed.
const (
	// EventProbe: one probe was logged.
	EventProbe EventKind = iota + 1
	// EventPrice: one price observation was recorded.
	EventPrice
	// EventSpike: one spot-price threshold crossing was logged.
	EventSpike
	// EventRevocation: one completed revocation watch was logged.
	EventRevocation
	// EventBidSpread: one intrinsic-price search result was logged.
	EventBidSpread
	// EventOutageOpen: the probe stream opened a detected outage interval.
	EventOutageOpen
	// EventOutageClose: a detected outage interval closed.
	EventOutageClose
	// EventLagged: the subscriber's buffer overflowed; Seq/Gen carry the
	// last delivered position to resume from. Terminal for the
	// subscription — no further events are delivered.
	EventLagged
)

// String names the event kind (the wire names of the SSE layer).
func (k EventKind) String() string {
	switch k {
	case EventProbe:
		return "probe"
	case EventPrice:
		return "price"
	case EventSpike:
		return "spike"
	case EventRevocation:
		return "revocation"
	case EventBidSpread:
		return "bid-spread"
	case EventOutageOpen:
		return "outage-open"
	case EventOutageClose:
		return "outage-close"
	case EventLagged:
		return "lagged"
	default:
		return "unknown"
	}
}

// Event is one typed store change. Exactly one payload arm matching Kind
// is set (EventLagged carries none). Payloads are copies — the feed never
// aliases caller or shard memory.
type Event struct {
	// Seq is the feed-assigned strictly increasing sequence number, the
	// primary resume key. Replayed events built by EventsSince carry 0.
	Seq uint64
	// Gen is the store's global append generation after the publish round
	// that produced this event, assigned in the same feed-lock hold as Seq
	// (so it never decreases along Seq); equality with the store's current
	// generation proves "nothing missed".
	Gen uint64

	Kind   EventKind
	Market market.SpotID
	At     time.Time

	Probe      *ProbeRecord
	Price      *PricePoint
	Spike      *SpikeEvent
	Revocation *RevocationRecord
	BidSpread  *BidSpreadRecord
	Outage     *OutageRecord
}

// EventFilter scopes a subscription: global (zero value), one region, one
// (region, product), or one market. Kinds narrows the event families
// delivered; nil means all. EventLagged always passes.
type EventFilter struct {
	// Market restricts to one market when non-zero (Region/Product are
	// then ignored — a market implies both).
	Market market.SpotID
	// Region restricts to one region when non-empty.
	Region market.Region
	// Product restricts to one product platform when non-empty.
	Product market.Product
	// Kinds restricts the delivered event families; nil delivers all.
	Kinds []EventKind
}

// kindMask folds Kinds into a bitmask; 0 means "all kinds".
func (f EventFilter) kindMask() uint16 {
	var m uint16
	for _, k := range f.Kinds {
		m |= 1 << k
	}
	return m
}

// matchMarket reports whether the filter's scope covers id.
func (f EventFilter) matchMarket(id market.SpotID) bool {
	if f.Market != (market.SpotID{}) {
		return id == f.Market
	}
	if f.Region != "" && id.Region() != f.Region {
		return false
	}
	if f.Product != "" && id.Product != f.Product {
		return false
	}
	return true
}

// match reports whether the subscription wants ev.
func match(mask uint16, f EventFilter, ev *Event) bool {
	if ev.Kind == EventLagged {
		return true
	}
	if mask != 0 && mask&(1<<ev.Kind) == 0 {
		return false
	}
	return f.matchMarket(ev.Market)
}

// SubscribeOptions parameterize one subscription.
type SubscribeOptions struct {
	Filter EventFilter
	// Buffer is the event channel capacity before the subscriber is
	// marked lagged; 0 uses DefaultSubscribeBuffer.
	Buffer int
}

// Subscription buffer and replay-ring defaults.
const (
	// DefaultSubscribeBuffer is the event-channel capacity of a
	// subscription that doesn't choose one.
	DefaultSubscribeBuffer = 256
	// defaultRingCapacity bounds the feed's resume replay ring. Sized so
	// a reconnect gap of tens of seconds at realistic event rates still
	// resumes exactly from the ring: a durable follower that restarts
	// (WAL replay takes seconds) or briefly lags must come back through
	// the exactly-once token path, not the at-least-once windowed
	// resync — duplicates there skew a replica's generations and break
	// its ETag compatibility until it is rebuilt. ~32k events of
	// retained ring costs a few MB on a serving node.
	defaultRingCapacity = 32768
)

// Subscription is one registered consumer of the change feed. Receive
// from Events; Close unregisters and closes the channel.
type Subscription struct {
	feed *Feed
	// filter/mask are immutable after Subscribe.
	filter EventFilter
	mask   uint16
	ch     chan Event

	// Publisher-side state, guarded by feed.mu: the last delivered
	// position (what the lagged marker advertises) and the lag flag.
	lastSeq, lastGen uint64
	lagged           bool

	dropped atomic.Uint64
	once    sync.Once
}

// Events returns the subscription's receive channel. It is closed by
// Close; after an EventLagged delivery no further events arrive and the
// consumer should Close and resubscribe with the marker's Seq/Gen.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many matching events were dropped before the lagged
// marker was delivered (0 for healthy subscriptions).
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unregisters the subscription and closes its channel. Safe to call
// more than once and concurrently with publishes.
func (s *Subscription) Close() {
	s.once.Do(func() {
		f := s.feed
		f.mu.Lock()
		delete(f.subs, s)
		if s.lagged {
			f.laggedSubs--
		}
		f.refreshActive()
		// The publisher only sends under f.mu, so closing here can never
		// race a send.
		close(s.ch)
		f.mu.Unlock()
	})
}

// ResumeMode says how SubscribeFrom bridged the gap between a resume
// point and the live stream.
type ResumeMode int

// Resume outcomes.
const (
	// ResumeLive: nothing was missed; the stream continues exactly.
	ResumeLive ResumeMode = iota + 1
	// ResumeRing: the gap was replayed exactly from the feed's ring.
	ResumeRing
	// ResumeWindow: the gap exceeds the ring (or spans a restart); the
	// caller must rebuild it best-effort from the store's windowed
	// indexes (EventsSince).
	ResumeWindow
)

// FeedStats is the feed's observability snapshot (the /v2/health payload).
type FeedStats struct {
	// Subscribers counts currently registered subscriptions.
	Subscribers int
	// Published counts events ever assigned a sequence number.
	Published uint64
	// Dropped counts events dropped at subscriber-overflow points.
	Dropped uint64
	// Lagged counts subscriptions ever marked lagged.
	Lagged uint64
	// LastSeq is the newest assigned sequence number.
	LastSeq uint64
	// LastGen is the global generation of the newest evented round.
	LastGen uint64
}

// Feed is the store's change-feed hub. One feed serves the whole store;
// obtain it with Store.Feed.
type Feed struct {
	// active mirrors len(subs)+armed so append paths can skip event
	// construction with one atomic load when nobody listens.
	active atomic.Int32

	// gen is the owning store's global append generation. Evented rounds
	// bump it here, inside publish's lock hold; comparing it with lastGen
	// proves generation continuity for exact resume.
	gen *atomic.Uint64

	mu   sync.Mutex
	subs map[*Subscription]struct{}
	// armed holds the feed hot without subscribers (see Arm): events keep
	// being built and the ring keeps filling, so a subscriber that
	// reconnects after a brief gap still resumes exactly from the ring.
	armed int
	// laggedSubs counts the registered-but-lagged subscriptions. They are
	// terminal — no further events will be delivered to them — so they
	// do not keep event construction alive: a store whose only
	// subscriber overflowed returns to the zero-cost append path until
	// someone (re)subscribes.
	laggedSubs int

	// seq numbers every published event; lastGen is the highest global
	// generation an evented publish round reported. While subscribers
	// exist every append publishes events, so lastGen == curGen() proves
	// the ring connects to the present.
	seq     uint64
	lastGen uint64

	// ring is the bounded replay buffer: a circular window of the most
	// recent events, contiguous in Seq. Allocated on first publish —
	// stores that never stream (offline analysis, recovery benchmarks)
	// never pay for a multi-megabyte buffer of empty Event slots.
	ring      []Event
	ringCap   int
	ringStart int // index of the oldest entry
	ringLen   int

	published   uint64
	dropped     uint64
	laggedCount uint64
}

func newFeed(gen *atomic.Uint64, ringCap int) *Feed {
	if ringCap <= 0 {
		ringCap = defaultRingCapacity
	}
	return &Feed{
		gen:     gen,
		subs:    make(map[*Subscription]struct{}),
		ringCap: ringCap,
	}
}

// Feed returns the store's change feed.
func (s *Store) Feed() *Feed { return s.feed }

// enabled reports whether append paths should construct events.
func (f *Feed) enabled() bool { return f != nil && f.active.Load() > 0 }

// Arm keeps the feed hot while no subscriber is registered: append paths
// keep building events and the replay ring keeps filling, which is what
// lets a subscriber that disconnected for a moment resume exactly instead
// of falling back to a best-effort windowed resync. Serving layers arm
// the feed once when streaming starts and disarm on shutdown; arming is
// reference-counted. Deployments that never stream never pay for event
// construction.
func (f *Feed) Arm() {
	f.mu.Lock()
	f.armed++
	f.refreshActive()
	f.mu.Unlock()
}

// Disarm undoes one Arm.
func (f *Feed) Disarm() {
	f.mu.Lock()
	if f.armed > 0 {
		f.armed--
	}
	f.refreshActive()
	f.mu.Unlock()
}

// refreshActive recomputes the append paths' fast-path gate; callers hold
// f.mu. Lagged subscriptions no longer receive events and so do not keep
// construction alive.
func (f *Feed) refreshActive() {
	f.active.Store(int32(len(f.subs) - f.laggedSubs + f.armed))
}

// Stats returns the feed's counters.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FeedStats{
		Subscribers: len(f.subs),
		Published:   f.published,
		Dropped:     f.dropped,
		Lagged:      f.laggedCount,
		LastSeq:     f.seq,
		LastGen:     f.lastGen,
	}
}

// Subscribe registers a live subscriber: it receives events published
// after registration (events racing the registration itself may or may
// not be seen).
func (f *Feed) Subscribe(opts SubscribeOptions) *Subscription {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.subscribeLocked(opts)
}

// SubscribeFrom registers a subscriber resuming from a previous position:
// seq is the last delivered sequence and gen the last delivered
// generation. It returns the registered subscription, the exactly
// replayed backlog (ring events after seq, filtered), and how the gap was
// bridged; on ResumeWindow the backlog is nil and the caller replays from
// the store's windowed indexes before going live.
func (f *Feed) SubscribeFrom(opts SubscribeOptions, seq, gen uint64) (*Subscription, []Event, ResumeMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sub := f.subscribeLocked(opts)

	// Generation continuity: if records were appended without events
	// (zero-subscriber quiet period, or a restart), the ring does not
	// connect to the present and exact replay is impossible. An evented
	// round bumps the generation and lastGen in one hold of this lock, so
	// a reconnect landing mid-round still compares equal; only a round
	// that started while the feed was cold can bump the generation alone,
	// and that errs conservatively (a spurious window fallback, never a
	// false exactness claim).
	if f.lastGen != f.gen.Load() {
		return sub, nil, ResumeWindow
	}
	switch {
	case gen != 0 && gen == f.lastGen && seq >= f.seq:
		// Up to date: the position's generation matches the store's
		// current one and no newer event exists (seq > f.seq happens
		// across a restart of a durable store, where generations survive
		// but the in-memory sequence space does not — gen equality still
		// proves nothing was appended in between).
		return sub, nil, ResumeLive
	case seq > f.seq:
		// A position from another process life with appends in between.
		return sub, nil, ResumeWindow
	case f.ringLen > 0 && seq >= f.ring[f.ringStart].Seq:
		// The client's own last event must still be in the ring and carry
		// the client's generation: sequence numbers restart with the
		// process, so a pre-restart position can collide with this life's
		// sequence space — the generation check unmasks it (generations
		// either survive restarts exactly, on a durable store, or differ).
		oldest := f.ring[f.ringStart].Seq
		own := f.ring[(f.ringStart+int(seq-oldest))%len(f.ring)]
		if own.Seq != seq || own.Gen != gen {
			return sub, nil, ResumeWindow
		}
		backlog := make([]Event, 0, f.ringLen)
		for i := 0; i < f.ringLen; i++ {
			ev := f.ring[(f.ringStart+i)%len(f.ring)]
			if ev.Seq > seq && match(sub.mask, sub.filter, &ev) {
				backlog = append(backlog, ev)
			}
		}
		return sub, backlog, ResumeRing
	default:
		return sub, nil, ResumeWindow
	}
}

func (f *Feed) subscribeLocked(opts SubscribeOptions) *Subscription {
	buf := opts.Buffer
	if buf <= 0 {
		buf = DefaultSubscribeBuffer
	}
	// One extra slot stays reserved for the guaranteed lagged marker.
	sub := &Subscription{
		feed:   f,
		filter: opts.Filter,
		mask:   opts.Filter.kindMask(),
		ch:     make(chan Event, buf+1),
	}
	// "Cold" means no event-constructing consumers: lagged subscriptions
	// are terminal and stopped keeping construction alive, so they don't
	// count.
	cold := len(f.subs)-f.laggedSubs == 0 && f.armed == 0
	if cold && f.lastGen != f.gen.Load() {
		// Records landed while the feed was cold: the ring's tail no
		// longer connects to the present, so drop it rather than let a
		// later resume replay across the gap and claim exactness (the
		// next publish would otherwise heal the generation continuity
		// check over a ring with an invisible hole).
		f.ringStart, f.ringLen = 0, 0
		f.lastGen = f.gen.Load()
	}
	f.subs[sub] = struct{}{}
	f.refreshActive()
	return sub
}

// publish counts one append round's records into the store's global
// generation, assigns sequence numbers to its events, records them in the
// replay ring, and fans them out to matching subscribers with non-blocking
// sends. Called by shard.publish after the shard lock is released and the
// rollups are folded; rounds from different shards serialize here, which
// is what keeps lastGen equal to the generation between evented rounds.
func (f *Feed) publish(evs []Event, records uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	gen := f.gen.Add(records)
	f.lastGen = gen
	for i := range evs {
		f.seq++
		evs[i].Seq = f.seq
		evs[i].Gen = gen
		f.ringPush(evs[i])
	}
	f.published += uint64(len(evs))
	for sub := range f.subs {
		if sub.lagged {
			continue
		}
		for i := range evs {
			if !match(sub.mask, sub.filter, &evs[i]) {
				continue
			}
			if len(sub.ch) >= cap(sub.ch)-1 {
				// Overflow: mark the subscriber lagged and deliver the
				// terminal marker into the reserved slot. The marker's
				// Seq/Gen are the last successfully delivered position —
				// exactly where a resume should restart.
				sub.lagged = true
				sub.dropped.Add(1)
				f.dropped++
				f.laggedCount++
				f.laggedSubs++
				f.refreshActive()
				sub.ch <- Event{
					Kind: EventLagged,
					Seq:  sub.lastSeq,
					Gen:  sub.lastGen,
					At:   evs[i].At,
				}
				break
			}
			sub.ch <- evs[i]
			sub.lastSeq, sub.lastGen = evs[i].Seq, evs[i].Gen
		}
	}
}

func (f *Feed) ringPush(ev Event) {
	if f.ring == nil {
		f.ring = make([]Event, f.ringCap)
	}
	if f.ringLen < len(f.ring) {
		f.ring[(f.ringStart+f.ringLen)%len(f.ring)] = ev
		f.ringLen++
		return
	}
	f.ring[f.ringStart] = ev
	f.ringStart = (f.ringStart + 1) % len(f.ring)
}

// EventsSince rebuilds the events of every store change with At in
// [since, ∞) that matches the filter, from the shards' windowed indexes —
// the fallback replay path when a resume gap exceeds the feed's ring.
// Events are ordered by timestamp (ties by market, then family) and carry
// Seq 0 and the store's current global generation; outage transitions are
// synthesized from the derived intervals. Callers should treat the result
// as at-least-once relative to a live stream that broke mid-round.
func (s *Store) EventsSince(since time.Time, f EventFilter) []Event {
	gen := s.GlobalGeneration()
	mask := f.kindMask()
	want := func(k EventKind) bool { return mask == 0 || mask&(1<<k) != 0 }
	// Window bounds are inclusive; cap the far end inside time.Time's
	// int64-nanosecond range.
	to := time.Unix(0, 1<<62)

	var out []Event
	for _, sh := range s.shardList() {
		if !f.matchMarket(sh.id) {
			continue
		}
		id := sh.id
		// Each family materializes its window once, exactly sized by the
		// shard's time index, and events point into that slice — one
		// allocation per (shard, family) instead of one more per record.
		if want(EventProbe) {
			recs := sh.probesIn(nil, since, to)
			for i := range recs {
				out = append(out, Event{Kind: EventProbe, Gen: gen, Market: id, At: recs[i].At, Probe: &recs[i]})
			}
		}
		if want(EventPrice) {
			recs := sh.pricesIn(nil, since, to)
			for i := range recs {
				out = append(out, Event{Kind: EventPrice, Gen: gen, Market: id, At: recs[i].At, Price: &recs[i]})
			}
		}
		if want(EventSpike) {
			recs := sh.spikesIn(nil, since, to)
			for i := range recs {
				out = append(out, Event{Kind: EventSpike, Gen: gen, Market: id, At: recs[i].At, Spike: &recs[i]})
			}
		}
		if want(EventRevocation) {
			recs := sh.revocationsIn(nil, since, to)
			for i := range recs {
				out = append(out, Event{Kind: EventRevocation, Gen: gen, Market: id, At: recs[i].At, Revocation: &recs[i]})
			}
		}
		if want(EventBidSpread) {
			recs := sh.bidSpreadsIn(nil, since, to)
			for i := range recs {
				out = append(out, Event{Kind: EventBidSpread, Gen: gen, Market: id, At: recs[i].At, BidSpread: &recs[i]})
			}
		}
		if want(EventOutageOpen) || want(EventOutageClose) {
			sh.mu.RLock()
			outages := sh.outages.appendTo(nil, id, 0, sh.outages.n())
			sh.mu.RUnlock()
			for i := range outages {
				o := &outages[i]
				if want(EventOutageOpen) && !o.Start.Before(since) {
					out = append(out, Event{Kind: EventOutageOpen, Gen: gen, Market: id, At: o.Start, Outage: o})
				}
				if want(EventOutageClose) && !o.End.IsZero() && !o.End.Before(since) {
					out = append(out, Event{Kind: EventOutageClose, Gen: gen, Market: id, At: o.End, Outage: o})
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		if out[i].Market != out[j].Market {
			return out[i].Market.String() < out[j].Market.String()
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// bidSpreadsIn returns the shard's intrinsic-price results inside
// [from, to] (the one windowed read feed replay needed that the query
// paths never had).
func (sh *shard) bidSpreadsIn(dst []BidSpreadRecord, from, to time.Time) []BidSpreadRecord {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.bidSpreads.window(dst, sh.id, sh.bidSpreadsOrdered, from, to)
}
