// Package replica turns a SpotLight store into a read replica of a
// remote leader. The Replicator tails the leader's /v2/watch stream
// (pkg/client.Watch, so reconnects resume with Last-Event-ID) and applies
// every data event through the store's batch-append path — the same path
// the monitors use — so the follower builds its own rollups, generations,
// and derived outage intervals instead of trusting shipped aggregates.
//
// Two properties make the follower's answers byte-identical to the
// leader's once caught up:
//
//   - Generations are record counts. The follower applies exactly the
//     leader's record stream (probes, prices, spikes, revocations, bid
//     spreads), so every scope generation converges to the leader's.
//     Outage open/close events are skipped: outages are *derived* from
//     the per-market probe order, which the stream preserves, so the
//     follower re-derives identical intervals without double-counting
//     (outage transitions never increment a generation).
//   - ETags hash (salt, spec, scope generations, clock). The leader's
//     salt arrives in the stream's hello frame and the leader's clock is
//     tracked from event timestamps plus /v2/health polls, so a follower
//     serving with Salt()/Clock() mints the leader's exact tags.
//
// The stream is exactly-once while this follower's position stays inside
// the leader's ring, connected or reconnecting: falling behind is not a
// cut. A gap the ring no longer covers is rebuilt from the leader's
// windowed indexes at-least-once (a resync frame marks it). Replays at the
// resync boundary can duplicate records — the follower's generations then
// run ahead of the leader's and its tags diverge until the next restart
// from scratch. Status surfaces the resync count so operators can see
// when that guarantee weakened; see docs/replication.md.
package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

// Defaults.
const (
	// defaultPoll is the /v2/health poll interval: the follower's clock
	// advances at least this often even when the event stream is idle
	// (heartbeats bound the gap too, at the leader's heartbeat interval).
	defaultPoll = 2 * time.Second
	// defaultMaxBatch caps how many buffered events one apply round
	// folds into the store.
	defaultMaxBatch = 4096
	// defaultStaleAfter is how long without any frame (event, heartbeat,
	// hello) before Status reports the subscription disconnected.
	defaultStaleAfter = 45 * time.Second
	// watchBuffer is the client-side event buffer: deep enough to hold one
	// simulated tick's burst while the previous batch is applied.
	watchBuffer = 4096
	// defaultCursorInterval throttles durable-cursor saves (each one is
	// two fsyncs; see persistCursor).
	defaultCursorInterval = 250 * time.Millisecond
)

// Config wires one Replicator.
type Config struct {
	// Leader is the leader's base URL (scheme + host[:port]).
	Leader string
	// DB is the local store events are applied to. It should be empty
	// (or a previous life of the same stream) when the replicator
	// starts; the follower owns all writes to it.
	DB *store.Store
	// HTTPClient overrides the transport (nil: http.DefaultClient).
	HTTPClient *http.Client
	// Backfill asks the leader for that much trailing history on first
	// attach (bounded server-side to 24h). Zero means live-only: correct
	// when the follower attaches before the leader ingests anything.
	Backfill time.Duration
	// Poll is the /v2/health poll interval (default 2s).
	Poll time.Duration
	// MaxBatch caps events folded per apply round (default 4096).
	MaxBatch int
	// StaleAfter is the no-frame interval after which Status reports the
	// stream disconnected (default 45s).
	StaleAfter time.Duration
	// Persist, when set, makes the follower durable: it must be DB's own
	// persister (DB opened with store.Open). Every applied batch is
	// flushed through it and the stream cursor — leader salt, resume
	// token, per-market record counts — is persisted alongside, so a
	// restarted replicator replays the store locally and resumes the
	// stream from the cursor instead of re-tailing history, applying
	// each record exactly once (see cursor.go).
	Persist *store.Persister
	// CursorInterval bounds how often the durable cursor is saved
	// (default 250ms; the final save on Close always runs). A cursor
	// that trails the WAL only lengthens the resume replay after a
	// restart — the skip arithmetic keeps exactly-once intact.
	CursorInterval time.Duration
}

// Replicator tails one leader and applies its event stream to a local
// store. Create with New, then Start; Clock, Salt, and Status are safe
// from any goroutine while running.
type Replicator struct {
	cfg Config
	c   *client.Client

	// clockNanos is the newest leader instant seen (event timestamps,
	// control frames, health polls), monotone under concurrent advance.
	clockNanos atomic.Int64
	salt       atomic.Uint64
	saltKnown  atomic.Bool
	clockKnown atomic.Bool

	applied    atomic.Uint64
	resyncs    atomic.Uint64
	reconnects atomic.Uint64
	leaderGen  atomic.Uint64
	lastFrame  atomic.Int64 // wall nanos of the newest frame
	helloSeen  atomic.Bool

	mu     sync.Mutex
	lastID string

	// Stream-position state, owned by the apply goroutine (loadCursor
	// initializes it before Start): counts is how many of each market's
	// records the stream position covers (applied or counted off);
	// recovered is each market's generation at recovery — events up to
	// it are already in the store and are skipped, not re-applied.
	counts    map[string]uint64
	recovered map[string]uint64
	skipped   atomic.Uint64
	// resumeID, when set by loadCursor, resumes the first attach from
	// the durable cursor instead of requesting a Backfill window.
	resumeID string
	// lastCursorSave timestamps the newest durable-cursor save (apply
	// goroutine only; drives the CursorInterval throttle).
	lastCursorSave time.Time

	ready     chan struct{}
	readyOnce sync.Once
	cancel    context.CancelFunc
	done      chan struct{}
}

// New validates the config and builds a stopped Replicator.
func New(cfg Config) (*Replicator, error) {
	if cfg.DB == nil {
		return nil, errors.New("replica: Config.DB is required")
	}
	c, err := client.New(cfg.Leader, cfg.HTTPClient)
	if err != nil {
		return nil, fmt.Errorf("replica: leader URL: %w", err)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = defaultPoll
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = defaultStaleAfter
	}
	if cfg.CursorInterval <= 0 {
		cfg.CursorInterval = defaultCursorInterval
	}
	if cfg.Persist != nil && cfg.DB.Persister() != cfg.Persist {
		return nil, errors.New("replica: Config.Persist must be Config.DB's own persister")
	}
	r := &Replicator{
		cfg:    cfg,
		c:      c,
		counts: make(map[string]uint64),
		ready:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.Persist != nil {
		if _, err := r.loadCursor(cfg.Persist); err != nil {
			return nil, err
		}
		r.maybeReady()
	}
	return r, nil
}

// Start opens the leader subscription (synchronously, so an unreachable
// leader fails fast) and launches the apply and health-poll loops. Close
// stops both.
func (r *Replicator) Start() error {
	ctx, cancel := context.WithCancel(context.Background())
	opts := client.WatchOptions{
		Since:      r.cfg.Backfill,
		Buffer:     watchBuffer,
		Heartbeats: true,
	}
	if r.resumeID != "" {
		// A durable cursor resumes exactly where the flushed store ends;
		// asking for a backfill window on top would re-ship history the
		// recovery already replayed.
		opts.LastEventID = r.resumeID
		opts.Since = 0
	}
	w, err := r.c.Watch(ctx, opts)
	if err != nil {
		cancel()
		return fmt.Errorf("replica: attach to leader %s: %w", r.cfg.Leader, err)
	}
	r.cancel = cancel
	go r.run(ctx, w)
	return nil
}

// Close stops replication. The local store stays serviceable (and
// frozen). Idempotent once Start succeeded.
func (r *Replicator) Close() {
	if r.cancel == nil {
		return
	}
	r.cancel()
	<-r.done
}

// Ready is closed once the leader's salt and clock are both known — the
// point at which an API layer built over the local store can mint
// leader-compatible ETags. Watch it with a timeout: it never closes if
// the leader dies before the first hello.
func (r *Replicator) Ready() <-chan struct{} { return r.ready }

// Clock returns the newest leader instant observed. The follower's API
// uses it as "now": relative windows and summaries then resolve against
// the leader's (possibly simulated) timeline, not the follower's wall
// clock.
func (r *Replicator) Clock() time.Time {
	return time.Unix(0, r.clockNanos.Load()).UTC()
}

// Salt returns the leader's ETag salt and whether it is known yet (it
// arrives with the first hello frame).
func (r *Replicator) Salt() (uint64, bool) {
	return r.salt.Load(), r.saltKnown.Load()
}

// Status snapshots the replication state for /v2/health.
func (r *Replicator) Status() *api.HealthReplication {
	local := r.cfg.DB.GlobalGeneration()
	leader := r.leaderGen.Load()
	var lag uint64
	if leader > local {
		lag = leader - local
	}
	r.mu.Lock()
	lastID := r.lastID
	r.mu.Unlock()
	connected := false
	if t := r.lastFrame.Load(); t != 0 {
		connected = time.Since(time.Unix(0, t)) < r.cfg.StaleAfter
	}
	return &api.HealthReplication{
		Role:             "follower",
		Leader:           r.cfg.Leader,
		Connected:        connected,
		LastEventID:      lastID,
		Applied:          r.applied.Load(),
		LocalGeneration:  local,
		LeaderGeneration: leader,
		Lag:              lag,
		Resyncs:          r.resyncs.Load(),
		Reconnects:       r.reconnects.Load(),
	}
}

// run drains the watch, folding buffered bursts into batched appends,
// with the health poller ticking alongside.
func (r *Replicator) run(ctx context.Context, w *client.Watch) {
	defer close(r.done)
	defer w.Close()

	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		r.pollHealth(ctx)
	}()
	defer func() { <-pollDone }()

	batch := make([]api.StreamEvent, 0, r.cfg.MaxBatch)
	for ev := range w.Events() {
		batch = append(batch[:0], ev)
		// Drain whatever else the burst buffered — one tick's records
		// then cost one lock round per (market, family), not per event.
	drain:
		for len(batch) < r.cfg.MaxBatch {
			select {
			case more, ok := <-w.Events():
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		r.apply(batch)
	}
	// Stream closed (Close or context end): whatever the throttle held
	// back becomes durable now, so the next life resumes from here.
	r.persistCursor(true)
}

// pollHealth keeps the leader clock and generation fresh while the event
// stream is idle.
func (r *Replicator) pollHealth(ctx context.Context) {
	t := time.NewTicker(r.cfg.Poll)
	defer t.Stop()
	for {
		hctx, hcancel := context.WithTimeout(ctx, r.cfg.Poll)
		h, err := r.c.Health(hctx)
		hcancel()
		if err == nil {
			r.advanceClock(h.Now)
			maxUint(&r.leaderGen, h.Store.Generation)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// apply folds one drained burst into the local store: data events are
// bucketed per family (order preserved — within one market that is the
// only order that matters) and appended through the store's batch path;
// control frames update clock/salt/counters; outage transitions are
// dropped because the probe appends re-derive them.
func (r *Replicator) apply(batch []api.StreamEvent) {
	var (
		probes  []store.ProbeRecord
		spikes  []store.SpikeEvent
		revs    []store.RevocationRecord
		spreads []store.BidSpreadRecord
		prices  map[market.SpotID][]store.PricePoint
		// priced lists the batch's priced markets by first appearance, the
		// order store.Append*s group the other families in: a follower's own
		// feed sequence is then a pure function of the batch.
		priced []market.SpotID
	)
	applied := uint64(0)
	for _, ev := range batch {
		r.lastFrame.Store(time.Now().UnixNano())
		if !ev.At.IsZero() {
			r.advanceClock(ev.At)
		}
		maxUint(&r.leaderGen, ev.Gen)
		if ev.ID != "" {
			r.mu.Lock()
			r.lastID = ev.ID
			r.mu.Unlock()
		}
		switch ev.Kind {
		case api.EventHello:
			r.onHello(ev.Hello)
			continue
		case api.EventHeartbeat, api.EventLagged, api.EventResync:
			// Clock/token bookkeeping above is all these need: lagged is
			// followed by an automatic resume, and the resync frame's
			// at-least-once replay is counted from the hello that
			// announced it.
			continue
		case api.EventOutageOpen, api.EventOutageClose:
			// Derived on this side from the probe order; applying them
			// would have no append path anyway (outages are not records).
			continue
		}
		id, err := market.ParseSpotID(ev.Market)
		if err != nil {
			continue // future event family or malformed frame: skip
		}
		key := id.String()
		switch ev.Kind {
		case api.EventProbe:
			if ev.Probe == nil || !r.takeRecord(key) {
				continue
			}
			probes = append(probes, probeRecord(id, ev))
		case api.EventPrice:
			if ev.Price == nil || !r.takeRecord(key) {
				continue
			}
			if prices == nil {
				prices = make(map[market.SpotID][]store.PricePoint)
			}
			if _, seen := prices[id]; !seen {
				priced = append(priced, id)
			}
			prices[id] = append(prices[id], store.PricePoint{At: ev.Price.At, Price: ev.Price.Price})
		case api.EventSpike:
			if ev.Spike == nil || !r.takeRecord(key) {
				continue
			}
			spikes = append(spikes, store.SpikeEvent{
				At: ev.At, Market: id,
				Price: ev.Spike.Price, Ratio: ev.Spike.Ratio, Probed: ev.Spike.Probed,
			})
		case api.EventRevocation:
			if ev.Revocation == nil || !r.takeRecord(key) {
				continue
			}
			revs = append(revs, store.RevocationRecord{
				At: ev.At, Market: id,
				Bid: ev.Revocation.Bid, Held: ev.Revocation.Held,
			})
		case api.EventBidSpread:
			if ev.BidSpread == nil || !r.takeRecord(key) {
				continue
			}
			spreads = append(spreads, store.BidSpreadRecord{
				At: ev.At, Market: id,
				Published: ev.BidSpread.Published,
				Intrinsic: ev.BidSpread.Intrinsic,
				Attempts:  ev.BidSpread.Attempts,
			})
		default:
			continue
		}
		applied++
	}
	r.cfg.DB.AppendProbes(probes)
	r.cfg.DB.AppendSpikes(spikes)
	r.cfg.DB.AppendRevocations(revs)
	r.cfg.DB.AppendBidSpreads(spreads)
	for _, id := range priced {
		r.cfg.DB.RecordPrices(id, prices[id])
	}
	if applied > 0 {
		r.applied.Add(applied)
	}
	// The records of this round are in memory; make them durable and
	// record the stream position they end at, so a restart resumes here
	// instead of re-tailing (throttled to one save per CursorInterval).
	r.persistCursor(false)
}

// takeRecord advances market key's stream position by one record and
// reports whether that record must be applied — false means the
// recovered store already holds it (it was flushed after the cursor it
// was recovered with) and applying it again would double-count.
func (r *Replicator) takeRecord(key string) bool {
	n := r.counts[key] + 1
	r.counts[key] = n
	if n <= r.recovered[key] {
		r.skipped.Add(1)
		return false
	}
	return true
}

// onHello folds one hello frame: the first one carries the salt the
// follower's ETags need; later ones mean the stream reconnected, and
// their resume mode says whether the gap was bridged exactly.
func (r *Replicator) onHello(h *api.StreamHello) {
	if h == nil {
		return
	}
	maxUint(&r.leaderGen, h.Gen)
	if h.Salt != "" {
		if salt, err := strconv.ParseUint(h.Salt, 16, 64); err == nil {
			r.salt.Store(salt)
			r.saltKnown.Store(true)
		}
	}
	if r.helloSeen.Swap(true) {
		r.reconnects.Add(1)
	}
	if h.Resume == "resync" {
		r.resyncs.Add(1)
	}
	r.maybeReady()
}

// advanceClock moves the leader clock forward, never back (events and
// health polls race).
func (r *Replicator) advanceClock(t time.Time) {
	n := t.UnixNano()
	for {
		cur := r.clockNanos.Load()
		if n <= cur {
			return
		}
		if r.clockNanos.CompareAndSwap(cur, n) {
			r.clockKnown.Store(true)
			r.maybeReady()
			return
		}
	}
}

// maybeReady closes Ready once both the salt and the clock are known.
func (r *Replicator) maybeReady() {
	if r.saltKnown.Load() && r.clockKnown.Load() {
		r.readyOnce.Do(func() { close(r.ready) })
	}
}

// probeRecord rebuilds the store record from its wire form.
func probeRecord(id market.SpotID, ev api.StreamEvent) store.ProbeRecord {
	p := ev.Probe
	rec := store.ProbeRecord{
		At:         ev.At,
		Market:     id,
		Kind:       store.ParseProbeKind(p.Contract),
		Trigger:    store.ParseTrigger(p.Trigger),
		SourceKind: store.ParseProbeKind(p.SourceKind),
		SpikeRatio: p.SpikeRatio,
		PriceRatio: p.PriceRatio,
		Rejected:   p.Rejected,
		Code:       p.Code,
		Bid:        p.Bid,
		Cost:       p.Cost,
	}
	if p.TriggerMarket != "" {
		if tm, err := market.ParseSpotID(p.TriggerMarket); err == nil {
			rec.TriggerMarket = tm
		}
	}
	return rec
}

// maxUint advances a monotone counter to v if larger.
func maxUint(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
