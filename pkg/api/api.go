// Package api defines the versioned, typed wire contract of the SpotLight
// query service: one request DTO per query kind, the response DTOs those
// queries produce, the batch envelope of POST /v2/query, and the
// machine-readable error envelope shared by every endpoint.
//
// The paper's core contribution is this interface — "SpotLight exports a
// query interface that enables applications or users to query information
// about availability characteristics" — so the contract lives in a public
// package that both the server (internal/query) and the client SDK
// (pkg/client) compile against; external consumers import it instead of
// hand-rolling URLs and anonymous JSON.
//
// Market IDs travel as their canonical "zone:type:product" string form,
// durations as nanosecond integers in fields suffixed "Nanos" (matching
// encoding/json's time.Duration representation), and timestamps as
// RFC3339.
package api

import "time"

// Kind names a query kind. Each kind maps to one GET /v1/<kind> endpoint
// and to one arm of the POST /v2/query batch envelope.
type Kind string

// The ten query kinds.
const (
	// KindUnavailability: fraction of a window one market's contract tier
	// was detected unavailable.
	KindUnavailability Kind = "unavailability"
	// KindStable: markets ranked by fewest on-demand price crossings (the
	// paper's example query: longest mean-time-to-revocation at a bid
	// equal to the on-demand price).
	KindStable Kind = "stable"
	// KindVolatile: markets ranked by most crossings, enriched with
	// revocation-watch observations.
	KindVolatile Kind = "volatile"
	// KindFallback: uncorrelated fail-over markets for one market.
	KindFallback Kind = "fallback"
	// KindPrices: one market's recorded price series in a window.
	KindPrices Kind = "prices"
	// KindOutages: one market's detected outage intervals in a window.
	KindOutages Kind = "outages"
	// KindPredict: probability of an on-demand outage near a spike of a
	// given size.
	KindPredict Kind = "predict"
	// KindReservedValue: the reserved-vs-on-demand purchase assessment.
	KindReservedValue Kind = "reserved-value"
	// KindMarkets: catalog discovery, optionally filtered.
	KindMarkets Kind = "markets"
	// KindSummary: per-region availability aggregates at the service
	// clock.
	KindSummary Kind = "summary"
)

// KindAdvise (the eleventh kind, the decision layer) is declared in
// advise.go next to its DTOs.

// MaxBatchQueries is the largest number of queries one POST /v2/query
// request may carry.
const MaxBatchQueries = 64

// MaxBatchBody bounds the POST /v2/query request body every tier will
// decode; MaxBatchQueries fully parameterized specs fit in a small
// fraction of it.
const MaxBatchBody = 1 << 20

// Query is one typed query spec: a Kind plus the parameters that kind
// consumes (others are ignored). The embedded Window marshals inline as
// from/to/window.
//
// Parameter use by kind:
//
//	unavailability  Market, Contract (od|spot, default od), Window
//	stable          Region?, Product?, N (default 10), Window
//	volatile        Region?, Product?, N (default 10), Window
//	fallback        Market, N (default 5), Window
//	prices          Market, Window
//	outages         Market, Window
//	predict         Market, Ratio, Horizon (default 15m), Window
//	reserved-value  Market, Utilization in [0,1], Window
//	markets         Region?, Product?
//	summary         (none)
//	advise          Advise (constraints), Window
type Query struct {
	Kind Kind `json:"kind"`
	Window
	// Market is the "zone:type:product" spot market ID, for the
	// single-market kinds.
	Market string `json:"market,omitempty"`
	// Region filters multi-market kinds to one region when non-empty.
	Region string `json:"region,omitempty"`
	// Product filters multi-market kinds to one platform when non-empty.
	Product string `json:"product,omitempty"`
	// N bounds ranked results; 0 means the kind's default.
	N int `json:"n,omitempty"`
	// Contract selects the contract tier for unavailability: "od"
	// (default) or "spot".
	Contract string `json:"contract,omitempty"`
	// Ratio is the spike multiple for predict (spot price / od price).
	Ratio float64 `json:"ratio,omitempty"`
	// Horizon is the predict look-ahead as a duration string ("15m").
	Horizon string `json:"horizon,omitempty"`
	// Utilization is the planned duty cycle in [0,1] for reserved-value.
	Utilization float64 `json:"utilization,omitempty"`
	// Advise carries the workload constraints for KindAdvise.
	Advise *AdviseConstraints `json:"advise,omitempty"`
}

// BatchRequest is the body of POST /v2/query: up to MaxBatchQueries
// heterogeneous queries evaluated in one round trip.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// BatchResponse answers a BatchRequest. Results align 1:1 with the
// request's Queries; each result succeeds or fails independently, so one
// bad query never poisons the rest of the batch.
type BatchResponse struct {
	// Now is the service clock the batch was evaluated at — the instant
	// relative windows resolved against.
	Now     time.Time `json:"now"`
	Results []Result  `json:"results"`
}

// Result is one per-query outcome inside a BatchResponse: the echoed
// Kind, either an Error or exactly one populated payload arm.
type Result struct {
	Kind  Kind   `json:"kind"`
	Error *Error `json:"error,omitempty"`

	Unavailability *Unavailability  `json:"unavailability,omitempty"`
	Stable         []StableMarket   `json:"stable,omitempty"`
	Volatile       []VolatileMarket `json:"volatile,omitempty"`
	Fallbacks      []Fallback       `json:"fallbacks,omitempty"`
	Prices         []PricePoint     `json:"prices,omitempty"`
	Outages        []Outage         `json:"outages,omitempty"`
	Prediction     *Prediction      `json:"prediction,omitempty"`
	ReservedValue  *ReservedValue   `json:"reservedValue,omitempty"`
	Markets        []MarketInfo     `json:"markets,omitempty"`
	Summary        []RegionSummary  `json:"summary,omitempty"`
	Advise         *AdviseResult    `json:"advise,omitempty"`
}

// Unavailability answers an unavailability query.
type Unavailability struct {
	Market string `json:"market"`
	// Contract is the tier measured: "on-demand" or "spot".
	Contract       string  `json:"kind"`
	Unavailability float64 `json:"unavailability"`
	Availability   float64 `json:"availability"`
}

// StableMarket is one row of a stability ranking.
type StableMarket struct {
	Market string `json:"market"`
	// Crossings is how many times the spot price crossed the on-demand
	// price in the window.
	Crossings int `json:"crossings"`
	// MTTR is the estimated mean time to revocation for a bid equal to
	// the on-demand price: window / (crossings + 1).
	MTTR time.Duration `json:"mttrNanos"`
	// ODUnavailability is the market's detected on-demand outage fraction
	// over the window.
	ODUnavailability float64 `json:"odUnavailability"`
}

// VolatileMarket is one row of a volatility ranking.
type VolatileMarket struct {
	Market    string  `json:"market"`
	Crossings int     `json:"crossings"`
	MaxRatio  float64 `json:"maxRatio"`
	// MeanHeld is the observed mean time-to-revocation from completed
	// revocation watches, when any exist.
	MeanHeld time.Duration `json:"meanHeldNanos"`
	Watches  int           `json:"watches"`
}

// Fallback is one recommended uncorrelated fail-over market.
type Fallback struct {
	Market           string  `json:"market"`
	ODUnavailability float64 `json:"odUnavailability"`
	Crossings        int     `json:"crossings"`
}

// PricePoint is one observed published price sample.
type PricePoint struct {
	At    time.Time `json:"at"`
	Price float64   `json:"price"`
}

// Outage is one detected unavailability interval.
type Outage struct {
	Market string `json:"market"`
	// Contract is the affected tier: "on-demand" or "spot".
	Contract string    `json:"kind"`
	Start    time.Time `json:"start"`
	// End is the zero timestamp (serialized "0001-01-01T00:00:00Z")
	// while the outage is ongoing; check End.IsZero().
	End time.Time `json:"end"`
	// Duration is measured to the window end for ongoing outages.
	Duration time.Duration `json:"durationNanos"`
}

// Prediction is the outage predictor's output.
type Prediction struct {
	Market     string  `json:"market"`
	SpikeRatio float64 `json:"spikeRatio"`
	// Probability is P(on-demand outage within the horizon | spike of at
	// least this size), from historical co-occurrence.
	Probability float64 `json:"probability"`
	Samples     int     `json:"samples"`
	// Basis says which history level produced the estimate: "market",
	// "region", or "global".
	Basis string `json:"basis"`
}

// ReservedValue is the reserved-vs-on-demand assessment for one market.
type ReservedValue struct {
	Market                  string  `json:"market"`
	ODHourly                float64 `json:"odHourly"`
	ReservedEffectiveHourly float64 `json:"reservedEffectiveHourly"`
	BreakEvenUtilization    float64 `json:"breakEvenUtilization"`
	ODUnavailability        float64 `json:"odUnavailability"`
	PlannedUtilization      float64 `json:"plannedUtilization"`
	Reserve                 bool    `json:"reserve"`
	Reason                  string  `json:"reason"`
}

// MarketInfo is one row of the market-discovery listing.
type MarketInfo struct {
	Market        string  `json:"market"`
	OnDemandPrice float64 `json:"onDemandPrice"`
	Family        string  `json:"family"`
	Units         int     `json:"units"`
}

// RegionSummary aggregates detected availability per region.
type RegionSummary struct {
	Region            string        `json:"region"`
	ODOutages         int           `json:"odOutages"`
	SpotOutages       int           `json:"spotOutages"`
	MeanODOutage      time.Duration `json:"meanODOutageNanos"`
	RejectedODProbes  int           `json:"rejectedODProbes"`
	TotalODProbes     int           `json:"totalODProbes"`
	RejectedSpotPcnt  float64       `json:"rejectedSpotPcnt"`
	TotalSpotProbes   int           `json:"totalSpotProbes"`
	SpikesAboveOD     int           `json:"spikesAboveOD"`
	ObservedSpikesAll int           `json:"observedSpikesAll"`
}
