package api

import "time"

// Live streaming (GET /v2/watch).
//
// The watch endpoint is SpotLight's push surface: instead of polling the
// query endpoints and revalidating ETags, a consumer opens one
// long-lived request and receives typed events — probes, price samples,
// spike crossings, revocations, bid spreads, and derived outage
// open/close transitions — as the store ingests them, over standard
// Server-Sent Events (text/event-stream).
//
// Wire format: each event is one SSE frame
//
//	id: <resume token>
//	event: <kind>
//	data: <StreamEvent JSON>
//
// followed by a blank line. The stream opens with a "hello" frame
// carrying the store generation the subscription attached at, emits
// "heartbeat" frames while idle, and — when the consumer falls behind
// the per-subscription buffer — a terminal "lagged" frame whose data
// names the generation to resume from, after which the server closes the
// stream and the client reconnects with Last-Event-ID.
//
// Resume: replaying the last received id in the Last-Event-ID header (or
// the lastEventId query parameter) continues the stream. The gap is
// replayed exactly — from the server's in-memory replay ring — whenever
// it is still covered; otherwise nothing of it is sent: a "resync" frame
// announces the gap, and its id is where the stream continues. A stream
// carries no history (since= is refused): a consumer that meets a resync
// re-reads the state it needs through the queries, where a conditional
// GET makes an unchanged scope a 304. Query parameters: market OR
// region/product scope the subscription, and kinds is a comma-separated
// EventKind list.
//
// Capacity: the server enforces a subscriber cap; beyond it /v2/watch
// answers 429 with the usual error envelope (code "overloaded") and a
// Retry-After header.
const (
	// HeaderLastEventID carries the resume token on reconnect (the SSE
	// standard header EventSource sends automatically).
	HeaderLastEventID = "Last-Event-ID"
	// HeaderRetryAfter tells a rejected (429) watcher how many seconds to
	// wait before reconnecting.
	HeaderRetryAfter = "Retry-After"
	// ContentTypeLog in Accept asks /v2/watch for the follow stream read
	// replicas apply: the store's own snapshot and log frames, unfiltered.
	ContentTypeLog = "application/x-spotlight-log"
)

// EventKind names one live-stream event family on the wire.
type EventKind string

// Stream event kinds. The first seven mirror the store's change feed;
// hello/heartbeat/lagged/resync are stream-control frames.
const (
	// EventProbe: one probe was logged.
	EventProbe EventKind = "probe"
	// EventPrice: one spot price observation was recorded.
	EventPrice EventKind = "price"
	// EventSpike: one spot-price threshold crossing was logged.
	EventSpike EventKind = "spike"
	// EventRevocation: one completed revocation watch was logged.
	EventRevocation EventKind = "revocation"
	// EventBidSpread: one intrinsic-price search result was logged.
	EventBidSpread EventKind = "bid-spread"
	// EventOutageOpen: a detected outage interval opened.
	EventOutageOpen EventKind = "outage-open"
	// EventOutageClose: a detected outage interval closed.
	EventOutageClose EventKind = "outage-close"
	// EventHello opens every stream: the generation and clock the
	// subscription attached at, and how a resume request was bridged.
	EventHello EventKind = "hello"
	// EventHeartbeat keeps idle connections alive (and lets clients
	// detect dead ones).
	EventHeartbeat EventKind = "heartbeat"
	// EventLagged is terminal: the consumer fell behind and events were
	// dropped; Gen in the payload is the position to resume from.
	EventLagged EventKind = "lagged"
	// EventResync announces a gap the server cannot replay: the events
	// between the consumer's token and this frame's id are not sent. Gen
	// is the store generation the stream continues from.
	EventResync EventKind = "resync"
)

// StreamEvent is the data payload of one /v2/watch frame. Kind selects
// which payload arm (if any) is populated.
type StreamEvent struct {
	// ID is the frame's resume token (the SSE id field); not part of the
	// JSON payload.
	ID string `json:"-"`

	Kind EventKind `json:"kind"`
	// Seq is the server-assigned sequence number; 0 on control frames.
	Seq uint64 `json:"seq,omitempty"`
	// Gen is the store generation the event (or control frame) is
	// anchored at.
	Gen uint64 `json:"gen,omitempty"`
	// Market is the affected market for data events.
	Market string `json:"market,omitempty"`
	// At is the event's record timestamp (or the clock, for control
	// frames).
	At time.Time `json:"at,omitempty"`

	Probe      *StreamProbe      `json:"probe,omitempty"`
	Price      *PricePoint       `json:"price,omitempty"`
	Spike      *StreamSpike      `json:"spike,omitempty"`
	Revocation *StreamRevocation `json:"revocation,omitempty"`
	BidSpread  *StreamBidSpread  `json:"bidSpread,omitempty"`
	Outage     *Outage           `json:"outage,omitempty"`
	Hello      *StreamHello      `json:"hello,omitempty"`
	Lagged     *StreamLagged     `json:"lagged,omitempty"`
}

// StreamProbe is one logged probe on the stream. The payload carries the
// full probe record — provenance fields included — so a consumer can
// rebuild the store's probe log exactly.
type StreamProbe struct {
	// Contract is the probed tier: "on-demand" or "spot".
	Contract string `json:"kind"`
	// Trigger names why the probe was issued (spike, recheck, ...).
	Trigger  string  `json:"trigger"`
	Rejected bool    `json:"rejected"`
	Code     string  `json:"code,omitempty"`
	Bid      float64 `json:"bid,omitempty"`
	Cost     float64 `json:"cost"`
	// TriggerMarket is the market whose event caused this probe (equal to
	// the event's market for direct spike probes).
	TriggerMarket string `json:"triggerMarket,omitempty"`
	// SourceKind is the contract tier whose event triggered this probe.
	SourceKind string `json:"sourceKind,omitempty"`
	// SpikeRatio is spot/on-demand price at the originating trigger.
	SpikeRatio float64 `json:"spikeRatio,omitempty"`
	// PriceRatio is the probed market's own spot/on-demand ratio at probe
	// time.
	PriceRatio float64 `json:"priceRatio,omitempty"`
}

// StreamSpike is one threshold crossing on the stream.
type StreamSpike struct {
	Price float64 `json:"price"`
	// Ratio is spot price / on-demand price at the crossing.
	Ratio  float64 `json:"ratio"`
	Probed bool    `json:"probed"`
}

// StreamRevocation is one completed revocation watch on the stream.
type StreamRevocation struct {
	Bid  float64       `json:"bid"`
	Held time.Duration `json:"heldNanos"`
}

// StreamBidSpread is one intrinsic-price search result on the stream.
type StreamBidSpread struct {
	Published float64 `json:"published"`
	Intrinsic float64 `json:"intrinsic"`
	Attempts  int     `json:"attempts"`
}

// StreamHello opens the stream.
type StreamHello struct {
	// Gen is the store generation the subscription attached at.
	Gen uint64 `json:"gen"`
	// Resume reports how a Last-Event-ID was bridged: "live" (nothing
	// missed), "replay" (exact ring replay), "resync" (a gap, announced by
	// the resync frame that follows), or "none" (fresh subscription).
	Resume string `json:"resume"`
	// Salt is the server's ETag/token salt, hex-encoded — the first
	// segment of every resume token.
	Salt string `json:"salt,omitempty"`
}

// StreamLagged is the terminal overflow notice.
type StreamLagged struct {
	// Gen is the generation of the last delivered event — the position to
	// resume from.
	Gen uint64 `json:"gen"`
}

// Health is the GET /v2/health payload: the serving process's view of
// its store and live-stream subsystem.
type Health struct {
	// Status is "ok", or "degraded" when the durable store has a sticky
	// durability error (the daemon keeps serving from memory).
	Status string `json:"status"`
	// Now is the service clock.
	Now   time.Time   `json:"now"`
	Store HealthStore `json:"store"`
	Watch HealthWatch `json:"watch"`
	// Replication is present only on follower nodes: the state of the
	// leader subscription this store is built from.
	Replication *HealthReplication `json:"replication,omitempty"`
	// Gateway is present only on gateway nodes: the per-upstream health
	// the aggregate Status was computed from.
	Gateway *HealthGateway `json:"gateway,omitempty"`
}

// HealthStore describes the store behind the service.
type HealthStore struct {
	// Mode is "memory" or "durable".
	Mode string `json:"mode"`
	// Healthy is false when the durability layer reported a sticky error;
	// always true for in-memory stores.
	Healthy bool `json:"healthy"`
	// Error carries the durability error text when unhealthy.
	Error string `json:"error,omitempty"`
	// Markets counts markets holding at least one record.
	Markets int `json:"markets"`
	// Generation is the store's global append generation.
	Generation uint64 `json:"generation"`
}

// HealthWatch describes the live-stream subsystem.
type HealthWatch struct {
	// Subscribers counts open /v2/watch streams; Cap is the server limit.
	Subscribers int `json:"subscribers"`
	Cap         int `json:"cap"`
	// Published counts events ever fanned out; Dropped counts events lost
	// to slow consumers; Lagged counts subscriptions ever marked lagged.
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`
	Lagged    uint64 `json:"lagged"`
	// LastSeq is the newest assigned event sequence number.
	LastSeq uint64 `json:"lastSeq"`
}

// HealthReplication is a follower's view of its leader subscription.
type HealthReplication struct {
	// Role is "follower", or "promoted" after the node took over as
	// leader (leaders that never were followers omit the whole struct).
	Role string `json:"role"`
	// Leader is the base URL of the node this store replicates.
	Leader string `json:"leader"`
	// Connected reports whether the watch stream is currently open; the
	// replicator reconnects with Last-Event-ID resume while it is not.
	Connected bool `json:"connected"`
	// LastEventID is the newest resume token applied.
	LastEventID string `json:"lastEventId,omitempty"`
	// Applied counts records applied to the local store.
	Applied uint64 `json:"applied"`
	// LocalGeneration and LeaderGeneration are the two stores' global
	// append generations; Lag is leader minus local (0 when caught up or
	// when the leader generation is not yet known).
	LocalGeneration  uint64 `json:"localGeneration"`
	LeaderGeneration uint64 `json:"leaderGeneration"`
	Lag              uint64 `json:"lag"`
	// LagSeconds is the leader clock in the newest position frame minus the
	// leader clock at the newest position applied.
	LagSeconds float64 `json:"lagSeconds"`
	// Resyncs counts snapshot transfers to a non-empty follower; Reconnects
	// counts stream re-establishments.
	Resyncs    uint64 `json:"resyncs"`
	Reconnects uint64 `json:"reconnects"`
	// Error says why the leader's stream is refused (naming both salts).
	Error string `json:"error,omitempty"`
}

// HealthGateway is a gateway's per-upstream health breakdown.
type HealthGateway struct {
	Nodes []NodeHealth `json:"nodes"`
}

// NodeHealth is one upstream's health as seen by the gateway.
type NodeHealth struct {
	URL string `json:"url"`
	// Status mirrors the node's own health status, or "unreachable".
	Status string `json:"status"`
	// Generation is the node's global store generation when reachable.
	Generation uint64 `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
	// Breaker is the gateway's circuit-breaker state for this upstream:
	// "closed" (healthy), "open" (ejected), or "half-open" (probing
	// re-admission). Empty when the gateway runs without health tracking.
	Breaker string `json:"breaker,omitempty"`
	// ConsecutiveFails counts back-to-back call failures; it resets to
	// zero on any success.
	ConsecutiveFails int `json:"consecutiveFails,omitempty"`
}

// PromoteResponse is the body of a successful POST /v2/admin/promote:
// the node drained its leader subscription and now accepts writes from
// its own study, preserving the ETag salt, clock timeline, and store
// generations of the failed leader.
type PromoteResponse struct {
	Promoted bool      `json:"promoted"`
	Now      time.Time `json:"now"`
}
