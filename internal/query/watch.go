package query

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// GET /v2/watch — the live event stream.
//
// The handler subscribes to the store's change feed — a cursor into the
// feed's ring — and relays its events in one of two wire formats, chosen
// by Accept: Server-Sent Events of JSON records (pkg/api/stream.go), or,
// for read replicas, the store's own follow stream of snapshot and log
// frames (api.ContentTypeLog, store/stream.go). One loop serves both; they
// differ only in how an event is written and how a gap the ring cannot
// replay is bridged (a resync frame that announces it, or a snapshot).
// Three rules shape the loop:
//
//   - writes are batched per wake: each wake reads chunks of events after
//     the cursor until it is caught up, then flushes once — a monitor
//     tick that lands hundreds of records costs a few flushes, not
//     hundreds;
//   - a slow consumer never blocks ingestion and is not cut off for being
//     behind: its cursor simply trails in the ring. Only when the ring has
//     overwritten events it had not read does the handler close the stream
//     (SSE relays a terminal lagged frame first); the client reconnects
//     with Last-Event-ID and the gap is bridged;
//   - the stream honors server shutdown: API.Shutdown closes every open
//     stream so http.Server.Shutdown can drain.

// Watch-stream server defaults.
const (
	// defaultWatchLimit caps concurrent /v2/watch subscribers per server.
	defaultWatchLimit = 256
	// defaultWatchHeartbeat is the idle keep-alive interval.
	defaultWatchHeartbeat = 15 * time.Second
	// watchChunk is how many events one read of the feed copies (one hold
	// of the feed lock) before the handler writes them out.
	watchChunk = 256
	// watchRetryAfter is the reconnect hint (seconds) on a 429.
	watchRetryAfter = 5
	// logPositionEvery paces the follow stream's idle position frames.
	logPositionEvery = 250 * time.Millisecond
	// watchShutdownGrace is how long a stream's writes may still take once
	// the server shuts down: a reading consumer gets the stream's end, one
	// that stopped reading is cut off well inside a server's drain.
	watchShutdownGrace = time.Second
)

// resumeNames are the hello frame's names for how a resume was bridged.
var resumeNames = [...]string{store.ResumeLive: "live", store.ResumeRing: "replay", store.ResumeGap: "resync"}

// SetWatchLimit overrides the concurrent watch-subscriber cap (n <= 0
// keeps the default). Call before serving.
func (a *API) SetWatchLimit(n int) {
	if n > 0 {
		a.watchLimit = n
	}
}

// Shutdown closes every open watch stream so the owning http.Server can
// drain; subsequent watch requests are refused with 429. Idempotent.
func (a *API) Shutdown() {
	a.shutOnce.Do(func() {
		a.shutStreams()
		// Consume armOnce so a request racing past the refusal check can
		// no longer arm the feed after this point, then release the arm
		// if one was taken.
		a.armOnce.Do(func() {})
		if a.armed.Load() {
			a.engine.db.Feed().Disarm()
		}
	})
}

// watchKinds maps wire kind names onto store event kinds, whose names are
// the wire's.
var watchKinds = func() map[string]store.EventKind {
	m := make(map[string]store.EventKind)
	for k := store.EventProbe; k <= store.EventOutageClose; k++ {
		m[k.String()] = k
	}
	return m
}()

// watchFilterFromURL parses the subscription scope and kind parameters.
func watchFilterFromURL(r *http.Request) (store.EventFilter, *api.Error) {
	qs := r.URL.Query()
	var f store.EventFilter
	if m := qs.Get("market"); m != "" {
		if qs.Get("region") != "" || qs.Get("product") != "" {
			return f, api.Errorf(api.CodeBadParam, "market is exclusive with region/product").WithDetail("param", "market")
		}
		id, err := market.ParseSpotID(m)
		if err != nil {
			return f, api.Errorf(api.CodeBadMarket, "bad market %q (want zone:type:product)", m)
		}
		f.Market = id
	}
	f.Region = market.Region(qs.Get("region"))
	f.Product = market.Product(qs.Get("product"))
	if ks := qs.Get("kinds"); ks != "" {
		for _, name := range strings.Split(ks, ",") {
			name = strings.TrimSpace(name)
			k, ok := watchKinds[name]
			if !ok {
				return f, api.Errorf(api.CodeBadParam, "unknown event kind %q", name).WithDetail("param", "kinds")
			}
			f.Kinds = append(f.Kinds, k)
		}
	}
	return f, nil
}

// watchToken renders one resume token: process epoch, event sequence,
// generation, and record timestamp, all hex. The epoch pins the token to
// one sequence space (a durable store's stable salt keeps generations
// meaningful across restarts; an in-memory restart retires the token, and
// its resume is told of a gap).
func (a *API) watchToken(seq, gen uint64, at time.Time) string {
	return store.Position{Salt: uint64(a.epoch), Seq: seq, Gen: gen, Clock: at}.Token()
}

// parseWatchToken reverses watchToken.
func parseWatchToken(s string) (epoch, seq, gen uint64, at time.Time, ok bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return 0, 0, 0, time.Time{}, false
	}
	vals := make([]uint64, 4)
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return 0, 0, 0, time.Time{}, false
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], time.Unix(0, int64(vals[3])).UTC(), true
}

// handleWatch serves one GET /v2/watch stream.
func (a *API) handleWatch(w http.ResponseWriter, r *http.Request) {
	logMode := strings.Contains(r.Header.Get("Accept"), api.ContentTypeLog)
	qs := r.URL.Query()
	for _, p := range [...]string{"market", "region", "product", "kinds"} {
		if logMode && qs.Get(p) != "" {
			writeAPIErr(w, api.Errorf(api.CodeBadParam, "%s does not apply to %s: the follow stream carries the whole store", p, api.ContentTypeLog).WithDetail("param", p))
			return
		}
	}
	if qs.Has("since") {
		writeAPIErr(w, api.Errorf(api.CodeBadParam, "since is not supported: a stream carries no history, read it through the queries").WithDetail("param", "since"))
		return
	}
	filter, aerr := watchFilterFromURL(r)
	if aerr != nil {
		writeAPIErr(w, aerr)
		return
	}
	lastID := r.Header.Get(api.HeaderLastEventID)
	if lastID == "" {
		lastID = qs.Get("lastEventId")
	}
	tokEpoch, tokSeq, tokGen, _, ok := parseWatchToken(lastID)
	if lastID != "" && !ok {
		writeAPIErr(w, api.Errorf(api.CodeBadParam, "malformed Last-Event-ID %q", lastID).WithDetail("param", "lastEventId"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIErr(w, api.Errorf(api.CodeInternal, "streaming unsupported by this server"))
		return
	}

	// Per-server subscriber cap: a clean 429 + Retry-After envelope. A
	// shutting-down server refuses the same way.
	select {
	case <-a.streamShut.Done():
		a.refuseWatch(w, "server is shutting down")
		return
	default:
	}
	if n := a.watchers.Add(1); int(n) > a.watchLimit {
		a.watchers.Add(-1)
		a.refuseWatch(w, "watch subscriber limit reached")
		return
	}
	defer a.watchers.Add(-1)

	// Attach to the feed. The first watch arms the feed for the server's
	// lifetime: events keep flowing into the replay ring between
	// subscribers, so reconnect gaps resume exactly.
	feed := a.engine.db.Feed()
	a.armOnce.Do(func() {
		feed.Arm()
		a.armed.Store(true)
	})
	opts := store.SubscribeOptions{Filter: filter}
	now := a.Now()
	var sub *store.Subscription
	resume := "none"
	switch {
	case lastID == "":
		sub = feed.Subscribe(opts)
	case tokEpoch != uint64(a.epoch):
		// Another process life: its sequence space is gone.
		sub, resume = feed.Subscribe(opts), "resync"
	default:
		var mode store.ResumeMode
		sub, mode = feed.SubscribeFrom(opts, tokSeq, tokGen)
		resume = resumeNames[mode]
	}
	defer sub.Close()
	// A gap the ring cannot replay is bridged by a snapshot on a follow
	// stream, which also opens every fresh one, and announced on SSE.
	gap := resume == "resync" || logMode && resume == "none"

	// The wire formats differ only in how the stream opens, writes events,
	// beats (after each catch-up of a follow stream, and on idle ticks) and
	// bridges a gap.
	db := a.engine.db
	var (
		hello, bridge, beat func() error
		write               func(evs []store.Event) error
		contentType         = "text/event-stream"
		every               = a.watchHeartbeat
	)
	if logMode {
		// The follow stream (store/stream.go), from where the subscription
		// starts: the feed's head, or the resume point of a ring replay.
		from := sub.Position()
		from.Salt = uint64(a.epoch)
		sw := store.NewStreamWriter(w, from)
		hello = func() error { return sw.Position(now) }
		write = sw.Events
		beat = func() error { return sw.Position(a.Now()) }
		bridge = func() error { return sw.Snapshot(db, a.Now()) }
		contentType, every = api.ContentTypeLog, min(every, logPositionEvery)
	} else {
		// hello opens the stream (with the SSE retry hint); control frames
		// carry no id, so a client that has seen no data events reconnects
		// fresh rather than resuming from a position it never had. The salt
		// lets a consumer mint byte-identical ETags (it is the first segment
		// of every resume token anyway, so nothing new leaks).
		hello = func() error {
			return writeSSE(w, "retry: 2000\n", api.StreamEvent{
				Kind: api.EventHello, Gen: feed.Stats().LastGen, At: now,
				Hello: &api.StreamHello{
					Gen:    db.GlobalGeneration(),
					Resume: resume,
					Salt:   fmt.Sprintf("%x", uint64(a.epoch)),
				},
			})
		}
		// lastTok is the newest delivered position's token, which
		// heartbeats re-advertise (an idle reconnect then resumes exactly
		// instead of starting fresh).
		lastTok := ""
		write = func(evs []store.Event) error {
			for _, ev := range evs {
				se := a.toStreamEvent(ev)
				if err := writeSSE(w, idField(se.ID), se); err != nil {
					return err
				}
				lastTok = se.ID
			}
			return nil
		}
		beat = func() error {
			return writeSSE(w, idField(lastTok), api.StreamEvent{Kind: api.EventHeartbeat, At: a.Now()})
		}
		// The gap is announced, not rebuilt: one resync frame whose id is
		// where this stream continues. The consumer re-reads the state it
		// needs through the queries, and a reconnect with that id resumes
		// exactly.
		bridge = func() error {
			p := sub.Position()
			lastTok = a.watchToken(p.Seq, p.Gen, p.Clock)
			return writeSSE(w, idField(lastTok), api.StreamEvent{Kind: api.EventResync, Gen: p.Gen, At: now})
		}
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // tell reverse proxies not to buffer
	w.WriteHeader(http.StatusOK)
	if hello() != nil || gap && bridge() != nil {
		return
	}
	flusher.Flush()

	// A consumer that stops reading stalls the handler in a write, where
	// it sees no shutdown, and http.Server.Shutdown waits for it: the
	// shutdown gives the stream's writes watchShutdownGrace to finish.
	rc := http.NewResponseController(w)
	defer context.AfterFunc(a.streamShut, func() { _ = rc.SetWriteDeadline(time.Now().Add(watchShutdownGrace)) })()

	hb := time.NewTicker(every)
	defer hb.Stop()
	ctx := r.Context()
	buf := make([]store.Event, 0, watchChunk)
	for {
		select {
		case <-sub.Ready():
			// Read until caught up, then flush once: while a burst is still
			// being published the handler keeps finding more, so a tick
			// costs a few flushes, not one per round. (A ring resume
			// arrives with its wake pending.)
			for {
				evs, live := sub.Next(buf)
				if err := write(evs); err != nil {
					return
				}
				if !live {
					flusher.Flush()
					return
				}
				if len(evs) == 0 {
					break
				}
			}
			if logMode && beat() != nil {
				return
			}
			flusher.Flush()
		case <-hb.C:
			if beat() != nil {
				return
			}
			flusher.Flush()
		case <-ctx.Done():
			return
		case <-a.streamShut.Done():
			return
		}
	}
}

// refuseWatch answers 429 with the error envelope and a retry hint.
func (a *API) refuseWatch(w http.ResponseWriter, msg string) {
	w.Header().Set(api.HeaderRetryAfter, strconv.Itoa(watchRetryAfter))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(
		api.Errorf(api.CodeOverloaded, "%s", msg).WithDetail("cap", strconv.Itoa(a.watchLimit)))
}

// idField renders the optional SSE id line.
func idField(tok string) string {
	if tok == "" {
		return ""
	}
	return "id: " + tok + "\n"
}

// writeSSE writes one frame: optional extra header lines (id/retry), the
// event name, and the JSON payload.
func writeSSE(w http.ResponseWriter, head string, se api.StreamEvent) error {
	data, err := json.Marshal(se)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%sevent: %s\ndata: %s\n\n", head, se.Kind, data)
	return err
}

// toStreamEvent converts a store feed event to its wire DTO, minting the
// resume token.
func (a *API) toStreamEvent(ev store.Event) api.StreamEvent {
	se := api.StreamEvent{
		Kind: api.EventKind(ev.Kind.String()),
		Seq:  ev.Seq, Gen: ev.Gen, At: ev.At,
		ID: a.watchToken(ev.Seq, ev.Gen, ev.At),
	}
	if ev.Market != (market.SpotID{}) {
		se.Market = ev.Market.String()
	}
	switch ev.Kind {
	case store.EventLagged:
		se.Lagged = &api.StreamLagged{Gen: ev.Gen}
	case store.EventProbe:
		se.Probe = &api.StreamProbe{
			Contract:   ev.Probe.Kind.String(),
			Trigger:    ev.Probe.Trigger.String(),
			Rejected:   ev.Probe.Rejected,
			Code:       ev.Probe.Code,
			Bid:        ev.Probe.Bid,
			Cost:       ev.Probe.Cost,
			SpikeRatio: ev.Probe.SpikeRatio,
			PriceRatio: ev.Probe.PriceRatio,
		}
		// Provenance fields ride along so a consumer can rebuild the probe
		// record exactly; zero values stay off the wire.
		if ev.Probe.TriggerMarket != (market.SpotID{}) {
			se.Probe.TriggerMarket = ev.Probe.TriggerMarket.String()
		}
		if ev.Probe.SourceKind != 0 {
			se.Probe.SourceKind = ev.Probe.SourceKind.String()
		}
	case store.EventPrice:
		se.Price = &api.PricePoint{At: ev.Price.At, Price: ev.Price.Price}
	case store.EventSpike:
		se.Spike = &api.StreamSpike{Price: ev.Spike.Price, Ratio: ev.Spike.Ratio, Probed: ev.Spike.Probed}
	case store.EventRevocation:
		se.Revocation = &api.StreamRevocation{Bid: ev.Revocation.Bid, Held: ev.Revocation.Held}
	case store.EventBidSpread:
		se.BidSpread = &api.StreamBidSpread{
			Published: ev.BidSpread.Published,
			Intrinsic: ev.BidSpread.Intrinsic,
			Attempts:  ev.BidSpread.Attempts,
		}
	case store.EventOutageOpen, store.EventOutageClose:
		o := ev.Outage
		dur := time.Duration(0)
		if !o.End.IsZero() {
			dur = o.End.Sub(o.Start)
		}
		se.Outage = &api.Outage{
			Market:   o.Market.String(),
			Contract: o.Kind.String(),
			Start:    o.Start,
			End:      o.End,
			Duration: dur,
		}
	}
	return se
}

// handleHealth serves GET /v2/health: store mode and durability state,
// plus the live-stream subsystem's counters. Always 200; "degraded"
// status signals a durable store that fell back to memory-only.
func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	db := a.engine.db
	h := api.Health{
		Status: "ok",
		Now:    a.Now(),
		Store: api.HealthStore{
			Mode:       "memory",
			Healthy:    true,
			Generation: db.GlobalGeneration(),
		},
	}
	// Count markets from the O(regions) rollups, not by copying the list.
	for _, agg := range db.RegionAggregates(h.Now) {
		h.Store.Markets += agg.Markets
	}
	if p := db.Persister(); p != nil {
		h.Store.Mode = "durable"
		if err := p.Err(); err != nil {
			h.Status = "degraded"
			h.Store.Healthy = false
			h.Store.Error = err.Error()
		}
	}
	fs := db.Feed().Stats()
	h.Watch = api.HealthWatch{
		Subscribers: int(a.watchers.Load()),
		Cap:         a.watchLimit,
		Published:   fs.Published,
		Dropped:     fs.Dropped,
		Lagged:      fs.Lagged,
		LastSeq:     fs.LastSeq,
	}
	if a.replication != nil {
		h.Replication = a.replication()
		if h.Replication != nil && !h.Replication.Connected && h.Replication.Role == "follower" {
			// The follower keeps serving, but its answers age while the
			// leader subscription is down. A promoted node is disconnected
			// by design — it IS the leader now — and stays "ok".
			h.Status = "degraded"
		}
	}
	writeJSON(w, h)
}
