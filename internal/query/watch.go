package query

import (
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

// GET /v2/watch — the live event stream (Server-Sent Events).
//
// The handler subscribes to the store's change feed — a cursor into the
// feed's ring — and relays its typed events as SSE frames (see
// pkg/api/stream.go for the wire contract). Three rules shape the loop:
//
//   - writes are batched per wake: each wake reads chunks of events after
//     the cursor until it is caught up, then flushes once — a monitor
//     tick that lands hundreds of records costs a few flushes, not
//     hundreds;
//   - a slow consumer never blocks ingestion and is not cut off for being
//     behind: its cursor simply trails in the ring. Only when the ring has
//     overwritten events it had not read does the handler relay the
//     terminal lagged frame and close; the client reconnects with
//     Last-Event-ID and is resynced from the store's windowed indexes;
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
	// maxResyncAge bounds how far back a best-effort windowed resync will
	// reach, keeping a stale resume token from replaying a whole study.
	maxResyncAge = 24 * time.Hour
)

// SetWatchLimit overrides the concurrent watch-subscriber cap (n <= 0
// keeps the default). Call before serving.
func (a *API) SetWatchLimit(n int) {
	if n > 0 {
		a.watchLimit = n
	}
}

// SetWatchHeartbeat overrides the idle heartbeat interval (d <= 0 keeps
// the default). Call before serving.
func (a *API) SetWatchHeartbeat(d time.Duration) {
	if d > 0 {
		a.watchHeartbeat = d
	}
}

// Shutdown closes every open watch stream so the owning http.Server can
// drain; subsequent watch requests are refused with 429. Idempotent.
func (a *API) Shutdown() {
	a.shutOnce.Do(func() {
		close(a.streamShut)
		// Consume armOnce so a request racing past the refusal check can
		// no longer arm the feed after this point, then release the arm
		// if one was taken.
		a.armOnce.Do(func() {})
		if a.armed.Load() {
			a.engine.db.Feed().Disarm()
		}
	})
}

// watchKinds maps wire kind names onto store event kinds.
var watchKinds = map[string]store.EventKind{
	string(api.EventProbe):       store.EventProbe,
	string(api.EventPrice):       store.EventPrice,
	string(api.EventSpike):       store.EventSpike,
	string(api.EventRevocation):  store.EventRevocation,
	string(api.EventBidSpread):   store.EventBidSpread,
	string(api.EventOutageOpen):  store.EventOutageOpen,
	string(api.EventOutageClose): store.EventOutageClose,
}

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
// one sequence space (a durable store's stable salt keeps generations —
// and so resync — meaningful across restarts; an in-memory restart
// retires the token into a best-effort resync).
func (a *API) watchToken(seq, gen uint64, at time.Time) string {
	return fmt.Sprintf("%x-%x-%x-%x", uint64(a.epoch), seq, gen, uint64(at.UnixNano()))
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
	filter, aerr := watchFilterFromURL(r)
	if aerr != nil {
		writeAPIErr(w, aerr)
		return
	}
	var since time.Duration
	if s := r.URL.Query().Get("since"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			writeAPIErr(w, api.Errorf(api.CodeBadParam, "bad since %q (want a positive duration like \"1h\")", s).WithDetail("param", "since"))
			return
		}
		since = d
	}
	lastID := r.Header.Get(api.HeaderLastEventID)
	if lastID == "" {
		lastID = r.URL.Query().Get("lastEventId")
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIErr(w, api.Errorf(api.CodeInternal, "streaming unsupported by this server"))
		return
	}

	// Per-server subscriber cap: a clean 429 + Retry-After envelope. A
	// shutting-down server refuses the same way.
	select {
	case <-a.streamShut:
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

	// Attach to the feed, bridging any resume gap. The first watch arms
	// the feed for the server's lifetime: events keep flowing into the
	// replay ring between subscribers, so reconnect gaps resume exactly.
	feed := a.engine.db.Feed()
	a.armOnce.Do(func() {
		feed.Arm()
		a.armed.Store(true)
	})
	opts := store.SubscribeOptions{Filter: filter}
	now := a.Now()
	var (
		sub        *store.Subscription
		resume     = "none"
		resyncFrom time.Time
		doResync   bool
	)
	switch {
	case lastID != "":
		epoch, seq, gen, at, ok := parseWatchToken(lastID)
		if !ok {
			writeAPIErr(w, api.Errorf(api.CodeBadParam, "malformed Last-Event-ID %q", lastID).WithDetail("param", "lastEventId"))
			return
		}
		if epoch == uint64(a.epoch) {
			var mode store.ResumeMode
			sub, mode = feed.SubscribeFrom(opts, seq, gen)
			switch mode {
			case store.ResumeLive:
				resume = "live"
			case store.ResumeRing:
				resume = "replay"
			default:
				resume, doResync, resyncFrom = "resync", true, at
			}
		} else {
			// Another process life: sequence space is gone; rebuild from
			// the token's timestamp.
			sub = feed.Subscribe(opts)
			resume, doResync, resyncFrom = "resync", true, at
		}
	case since > 0:
		sub = feed.Subscribe(opts)
		resume, doResync, resyncFrom = "backfill", true, now.Add(-since)
	default:
		sub = feed.Subscribe(opts)
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // tell reverse proxies not to buffer
	w.WriteHeader(http.StatusOK)

	// hello opens the stream (with the SSE retry hint); control frames
	// carry no id, so a client that has seen no data events reconnects
	// fresh rather than resuming from a position it never had. The salt
	// lets a read replica mint byte-identical ETags (it is the first
	// segment of every resume token anyway, so nothing new leaks).
	if err := writeSSE(w, "retry: 2000\n", api.StreamEvent{
		Kind: api.EventHello, Gen: feed.Stats().LastGen, At: now,
		Hello: &api.StreamHello{
			Gen:    a.engine.db.GlobalGeneration(),
			Resume: resume,
			Salt:   fmt.Sprintf("%x", uint64(a.epoch)),
		},
	}); err != nil {
		return
	}
	// lastTok tracks the newest delivered event's token so idle
	// heartbeats can re-advertise it (an idle reconnect then resumes
	// exactly instead of starting fresh).
	lastTok := ""
	if doResync {
		// Best-effort windowed rebuild: bounded, and explicitly marked so
		// the consumer knows the boundary may duplicate.
		if min := now.Add(-maxResyncAge); resyncFrom.Before(min) {
			resyncFrom = min
		}
		gen := a.engine.db.GlobalGeneration()
		if err := writeSSE(w, "", api.StreamEvent{
			Kind: api.EventResync, Gen: gen, At: now,
			Resync: &api.StreamResync{From: resyncFrom, Gen: gen},
		}); err != nil {
			return
		}
		for _, ev := range a.engine.db.EventsSince(resyncFrom, filter) {
			se := a.toStreamEvent(ev)
			if err := writeSSE(w, idField(se.ID), se); err != nil {
				return
			}
			lastTok = se.ID
		}
	}
	flusher.Flush()

	hb := time.NewTicker(a.watchHeartbeat)
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
				for _, ev := range evs {
					se := a.toStreamEvent(ev)
					if err := writeSSE(w, idField(se.ID), se); err != nil {
						return
					}
					lastTok = se.ID
				}
				if !live {
					flusher.Flush()
					return
				}
				if len(evs) == 0 {
					break
				}
			}
			flusher.Flush()
		case <-hb.C:
			if err := writeSSE(w, idField(lastTok), api.StreamEvent{Kind: api.EventHeartbeat, At: a.Now()}); err != nil {
				return
			}
			flusher.Flush()
		case <-ctx.Done():
			return
		case <-a.streamShut:
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
// resume token. Windowed-replay events (Seq 0) still carry a token so a
// consumer dropped mid-resync can continue from its timestamp.
func (a *API) toStreamEvent(ev store.Event) api.StreamEvent {
	se := api.StreamEvent{
		Seq: ev.Seq, Gen: ev.Gen, At: ev.At,
		ID: a.watchToken(ev.Seq, ev.Gen, ev.At),
	}
	if ev.Market != (market.SpotID{}) {
		se.Market = ev.Market.String()
	}
	switch ev.Kind {
	case store.EventLagged:
		se.Kind = api.EventLagged
		se.Lagged = &api.StreamLagged{Gen: ev.Gen}
	case store.EventProbe:
		se.Kind = api.EventProbe
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
		// Provenance fields ride along so a replica can rebuild the probe
		// record exactly; zero values stay off the wire.
		if ev.Probe.TriggerMarket != (market.SpotID{}) {
			se.Probe.TriggerMarket = ev.Probe.TriggerMarket.String()
		}
		if ev.Probe.SourceKind != 0 {
			se.Probe.SourceKind = ev.Probe.SourceKind.String()
		}
	case store.EventPrice:
		se.Kind = api.EventPrice
		se.Price = &api.PricePoint{At: ev.Price.At, Price: ev.Price.Price}
	case store.EventSpike:
		se.Kind = api.EventSpike
		se.Spike = &api.StreamSpike{Price: ev.Spike.Price, Ratio: ev.Spike.Ratio, Probed: ev.Spike.Probed}
	case store.EventRevocation:
		se.Kind = api.EventRevocation
		se.Revocation = &api.StreamRevocation{Bid: ev.Revocation.Bid, Held: ev.Revocation.Held}
	case store.EventBidSpread:
		se.Kind = api.EventBidSpread
		se.BidSpread = &api.StreamBidSpread{
			Published: ev.BidSpread.Published,
			Intrinsic: ev.BidSpread.Intrinsic,
			Attempts:  ev.BidSpread.Attempts,
		}
	case store.EventOutageOpen, store.EventOutageClose:
		if ev.Kind == store.EventOutageOpen {
			se.Kind = api.EventOutageOpen
		} else {
			se.Kind = api.EventOutageClose
		}
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
			Markets:    len(db.Markets()),
			Generation: db.GlobalGeneration(),
		},
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
