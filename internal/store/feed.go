package store

import (
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// The change feed is the store's push surface: every append — single or
// batched — publishes one round of typed events (probes, price samples,
// spike crossings, revocations, bid spreads, and the outage transitions
// the probe stream derives) in the same post-lock publish step that folds
// the rollup delta. With no subscribers at all the append paths skip event
// construction entirely behind a single atomic load.
//
// There is one queue: a bounded ring of the most recent events, contiguous
// in Seq, and a subscription is a cursor into it. Publishing a round writes
// its events into the ring once and sends each subscriber one non-blocking
// wake; filtering and copying are the reader's work, in Next, a bounded
// chunk per hold of the feed lock. So an append never waits on a reader's
// pace, and a stalled reader costs the publisher nothing per event. A reader lags only
// when the ring has overwritten events it had not read: Next then hands
// back one terminal EventLagged marker carrying the position the reader
// had read through, and the overwritten gap is counted as dropped.
//
// Resume is keyed by (sequence, generation): a subscriber that reconnects
// with its last sequence is positioned in the ring right after it when the
// ring still covers it and the feed was never quiescent in between
// (generation continuity is checked against the store's global append
// generation). When exact replay is impossible nothing is rebuilt: an SSE
// consumer is told of the gap and re-reads state through queries, and a
// follow stream (stream.go) sends a snapshot.

// EventKind names one change-feed event family.
type EventKind uint8

// Change-feed event kinds. EventLagged is the marker an overrun subscriber
// receives instead of the events the ring overwrote before it read them.
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
	// EventLagged: the ring overwrote events the subscriber had not read;
	// Seq/Gen/At carry the position it had read through, to resume from.
	// Terminal for the subscription — no further events are delivered.
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
	// primary resume key.
	Seq uint64
	// Gen is the store's global append generation after the publish round
	// that produced this event, assigned in the same feed-lock hold as Seq
	// (so it never decreases along Seq); equality with the store's current
	// generation proves "nothing missed".
	Gen uint64

	Kind   EventKind
	Market market.SpotID
	At     time.Time
	// Ordinal is a record event's place in its market's history: how many
	// records the market's shard held before it — the count a log run
	// header carries. Zero on outage transitions and the lagged marker.
	Ordinal uint64

	Probe      *ProbeRecord
	Price      *PricePoint
	Spike      *SpikeEvent
	Revocation *RevocationRecord
	BidSpread  *BidSpreadRecord
	Outage     *OutageRecord
}

// EventFilter scopes a subscription: global (zero value), one region, one
// (region, product), or one market. Kinds narrows the event kinds
// delivered; nil means all. EventLagged always passes.
type EventFilter struct {
	// Market restricts to one market when non-zero (Region/Product are
	// then ignored — a market implies both).
	Market market.SpotID
	// Region restricts to one region when non-empty.
	Region market.Region
	// Product restricts to one product platform when non-empty.
	Product market.Product
	// Kinds restricts the delivered event kinds; nil delivers all.
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
	if mask != 0 && mask&(1<<ev.Kind) == 0 {
		return false
	}
	return f.matchMarket(ev.Market)
}

// SubscribeOptions parameterize one subscription.
type SubscribeOptions struct {
	Filter EventFilter
}

const (
	// defaultRingCapacity bounds the feed's ring. Sized so a reader that
	// stalls or reconnects for tens of seconds at realistic event rates —
	// a durable follower restarting, say — resumes from the ring instead
	// of a resync or snapshot. ~32k events cost a few MB.
	defaultRingCapacity = 32768
	// nextChunk is how many events one Next copies when the caller brings
	// no buffer: the read holds the feed lock, so it is bounded.
	nextChunk = 256
)

// Subscription is one registered consumer of the change feed: a cursor
// into the feed's ring plus a filter. One goroutine reads it — wait on
// Ready, then call Next; Close unregisters.
type Subscription struct {
	feed *Feed
	// filter/mask are immutable after Subscribe.
	filter EventFilter
	mask   uint16
	// ready holds at most one pending wake. Sends and the close happen
	// under feed.mu, so they never race.
	ready chan struct{}

	// Guarded by feed.mu: cursor is the Seq the reader has read through,
	// gen and at belong to that event (what the lagged marker advertises),
	// and done is set by the lagged marker and by Close.
	cursor, gen uint64
	at          time.Time
	done        bool
}

// Ready delivers one wake after each publish round, and whenever Next left
// matching events unread; it is closed by Close.
func (s *Subscription) Ready() <-chan struct{} { return s.ready }

// wake leaves one pending wake; callers hold feed.mu on an open subscription.
func (s *Subscription) wake() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Next copies the filter-matching events after the cursor into dst[:0], up
// to cap(dst) of them (nextChunk when dst has no capacity), and advances
// the cursor. An empty result means the reader is caught up. live turns
// false when nothing further will arrive: the subscription is closed, or
// the ring overwrote events it had not read and the result is the one
// EventLagged marker — resubscribe with the marker's Seq/Gen.
func (s *Subscription) Next(dst []Event) (evs []Event, live bool) {
	if cap(dst) == 0 {
		dst = make([]Event, 0, nextChunk)
	}
	dst = dst[:0]
	f := s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.done {
		return dst, false
	}
	c := s.cursor
	if oldest := f.seq - uint64(f.ringLen) + 1; c+1 < oldest {
		s.done = true
		f.dropped += oldest - (c + 1)
		f.lagged++
		return append(dst, Event{Kind: EventLagged, Seq: c, Gen: s.gen, At: s.at}), false
	}
	for c < f.seq && len(dst) < cap(dst) {
		c++
		ev := &f.ring[c%uint64(len(f.ring))]
		s.gen, s.at = ev.Gen, ev.At
		if match(s.mask, s.filter, ev) {
			dst = append(dst, *ev)
		}
	}
	s.cursor = c
	if c < f.seq {
		s.wake()
	}
	return dst, true
}

// Position returns the place the cursor has read through: its sequence,
// generation and record time. A stream that opens by announcing a gap
// hands its consumer this position to resume from.
func (s *Subscription) Position() Position {
	s.feed.mu.Lock()
	defer s.feed.mu.Unlock()
	return Position{Seq: s.cursor, Gen: s.gen, Clock: s.at}
}

// Close unregisters the subscription and closes its Ready channel. Safe to
// call more than once and concurrently with publishes and Next.
func (s *Subscription) Close() {
	f := s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.subs[s]; !ok {
		return
	}
	delete(f.subs, s)
	f.refreshActive()
	s.done = true
	close(s.ready)
}

// ResumeMode says how SubscribeFrom bridged the gap between a resume
// point and the live stream.
type ResumeMode int

// Resume outcomes.
const (
	// ResumeLive: nothing was missed; the stream continues exactly.
	ResumeLive ResumeMode = iota + 1
	// ResumeRing: the ring still covers the gap; the subscription starts
	// right after the resume point and Next replays it exactly.
	ResumeRing
	// ResumeGap: the gap exceeds the ring (or spans a restart) and cannot
	// be replayed; the subscription is live from now. The caller announces
	// the gap (SSE) or sends a snapshot (stream.go).
	ResumeGap
)

// FeedStats is the feed's observability snapshot (the /v2/health payload).
type FeedStats struct {
	// Subscribers counts currently registered subscriptions.
	Subscribers int
	// Published counts events ever assigned a sequence number.
	Published uint64
	// Dropped counts events the ring overwrote before a reader read them.
	Dropped uint64
	// Lagged counts subscriptions ever handed the lagged marker.
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

	// seq numbers every published event; lastGen is the highest global
	// generation an evented publish round reported. While subscribers
	// exist every append publishes events, so lastGen == curGen() proves
	// the ring connects to the present.
	seq     uint64
	lastGen uint64

	// ring is the one queue: the most recent ringLen events, contiguous in
	// Seq and ending at seq, the event numbered q in slot q % len(ring).
	// Allocated on first publish — stores that never stream (offline
	// analysis, recovery benchmarks) never pay for a multi-megabyte buffer
	// of empty Event slots.
	ring    []Event
	ringCap int
	ringLen int
	// baseSeq and baseGen are the position just before the ring's oldest
	// event (the last one overwritten, or the ring's start): a reader there
	// is owed exactly the whole ring.
	baseSeq, baseGen uint64

	published uint64
	dropped   uint64
	lagged    uint64
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
// of being told of a gap. Serving layers arm the feed once when streaming
// starts and disarm on shutdown; arming is reference-counted. Deployments
// that never stream never pay for event construction.
func (f *Feed) Arm() {
	f.mu.Lock()
	f.warm()
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
// f.mu.
func (f *Feed) refreshActive() {
	f.active.Store(int32(len(f.subs) + f.armed))
}

// Stats returns the feed's counters.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FeedStats{
		Subscribers: len(f.subs),
		Published:   f.published,
		Dropped:     f.dropped,
		Lagged:      f.lagged,
		LastSeq:     f.seq,
		LastGen:     f.lastGen,
	}
}

// Backlog reports how many events the slowest registered subscription has
// yet to read through (0 with none registered).
func (f *Feed) Backlog() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var max uint64
	for sub := range f.subs {
		if d := f.seq - sub.cursor; d > max {
			max = d
		}
	}
	return max
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
// generation. It returns the registered subscription and how the gap is
// bridged: on ResumeRing the cursor sits at seq and Next replays the gap
// exactly; on ResumeGap the subscription is live from now.
func (f *Feed) SubscribeFrom(opts SubscribeOptions, seq, gen uint64) (*Subscription, ResumeMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sub := f.subscribeLocked(opts)

	// Generation continuity: if records were appended without events
	// (zero-subscriber quiet period, or a restart), the ring does not
	// connect to the present and exact replay is impossible. An evented
	// round bumps the generation and lastGen in one hold of this lock, so
	// a reconnect landing mid-round still compares equal; only a round
	// that started while the feed was cold can bump the generation alone,
	// and that errs conservatively (a spurious gap, never a false
	// exactness claim).
	if f.lastGen != f.gen.Load() {
		return sub, ResumeGap
	}
	switch {
	case gen != 0 && gen == f.lastGen && seq >= f.seq:
		// Up to date: the position's generation matches the store's
		// current one and no newer event exists (seq > f.seq happens
		// across a restart of a durable store, where generations survive
		// but the in-memory sequence space does not — gen equality still
		// proves nothing was appended in between).
		return sub, ResumeLive
	case seq == f.baseSeq && gen == f.baseGen:
		// Right before the ring's oldest event: the whole ring is the gap.
		sub.cursor, sub.gen = seq, gen
		sub.wake()
		return sub, ResumeRing
	case seq <= f.seq && seq+uint64(f.ringLen) > f.seq:
		// The client's own last event must still be in the ring and carry
		// the client's generation: sequence numbers restart with the
		// process, so a pre-restart position can collide with this life's
		// sequence space — the generation check unmasks it (generations
		// either survive restarts exactly, on a durable store, or differ).
		if own := &f.ring[seq%uint64(len(f.ring))]; own.Gen == gen {
			sub.cursor, sub.gen, sub.at = seq, own.Gen, own.At
			sub.wake()
			return sub, ResumeRing
		}
	}
	// Overwritten, or a position from another process life.
	return sub, ResumeGap
}

// subscribeLocked registers a subscription whose cursor sits at the
// newest event.
func (f *Feed) subscribeLocked(opts SubscribeOptions) *Subscription {
	sub := &Subscription{
		feed:   f,
		filter: opts.Filter,
		mask:   opts.Filter.kindMask(),
		ready:  make(chan struct{}, 1),
	}
	f.warm()
	sub.cursor, sub.gen = f.seq, f.lastGen
	if f.ringLen > 0 {
		sub.at = f.ring[f.seq%uint64(len(f.ring))].At
	}
	f.subs[sub] = struct{}{}
	f.refreshActive()
	return sub
}

// warm runs under f.mu as the feed turns hot. If records landed while it
// was cold, the ring's tail no longer connects to the present: drop it, or a
// later resume would replay across the gap (the next publish would heal the
// generation continuity check over a ring with an invisible hole).
func (f *Feed) warm() {
	if len(f.subs) == 0 && f.armed == 0 && f.lastGen != f.gen.Load() {
		f.ringLen, f.lastGen = 0, f.gen.Load()
		f.baseSeq, f.baseGen = f.seq, f.lastGen
	}
}

// publish counts one append round's records into the store's global
// generation, assigns sequence numbers to its events, writes them into the
// ring, and wakes every subscriber once. Called by shard.publish after the
// shard lock is released and the region rollup is folded; rounds from different
// shards serialize here, which is what keeps lastGen equal to the
// generation between evented rounds.
func (f *Feed) publish(evs []Event, records uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	gen := f.gen.Add(records)
	f.lastGen = gen
	if f.ring == nil {
		f.ring = make([]Event, f.ringCap)
	}
	for i := range evs {
		f.seq++
		evs[i].Seq, evs[i].Gen = f.seq, gen
		slot := &f.ring[f.seq%uint64(len(f.ring))]
		if f.ringLen == len(f.ring) {
			f.baseSeq, f.baseGen = slot.Seq, slot.Gen
		} else {
			f.ringLen++
		}
		*slot = evs[i]
	}
	f.published += uint64(len(evs))
	for sub := range f.subs {
		sub.wake()
	}
}
