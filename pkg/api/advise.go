package api

import "time"

// The advise query: the decision layer on top of the ten observational
// kinds. Given workload constraints (capacity floors, price and
// interruption ceilings, a region/product set — the input schema of
// spotinfo's find_spot_instances), the service ranks the spot markets it
// has price history for by a composite score over its own windowed
// per-market observations. It is reachable two ways with identical semantics: as the
// dedicated POST /v2/advise endpoint (body: AdviseRequest) and as the
// KindAdvise arm of the POST /v2/query batch envelope.

// KindAdvise ranks candidate spot markets for a workload's constraints.
// It is the eleventh query kind; unlike the observational ten it answers
// "what should I run" rather than "what is the market doing".
const KindAdvise Kind = "advise"

// AdviseConstraints is the workload description the advisor filters and
// ranks against. The zero value means "any market with price history".
type AdviseConstraints struct {
	// Regions restricts candidates to these regions. Empty, or a single
	// "all" entry, means every region. An unknown region name is a
	// bad_param error, not an empty result.
	Regions []string `json:"regions,omitempty"`
	// Products restricts candidates to these platforms ("Linux/UNIX",
	// "SUSE Linux", "Windows"). Empty means every platform.
	Products []string `json:"products,omitempty"`
	// InstanceTypes filters by instance type: an exact type ("c3.2xlarge"),
	// a family glob ("c3.*"), or empty for all types.
	InstanceTypes string `json:"instanceTypes,omitempty"`
	// MinVCPU is the minimum vCPU count per instance; 0 means no floor.
	MinVCPU int `json:"minVCPU,omitempty"`
	// MinMemoryGB is the minimum memory per instance; 0 means no floor.
	MinMemoryGB float64 `json:"minMemoryGB,omitempty"`
	// MaxPricePerHour caps the window's mean spot price; 0 means no cap.
	MaxPricePerHour float64 `json:"maxPricePerHour,omitempty"`
	// MaxInterruptionRate caps the estimated probability in [0,1] that an
	// instance bid at the on-demand price is revoked within one hour; 0
	// means no cap.
	MaxInterruptionRate float64 `json:"maxInterruptionRate,omitempty"`
	// N bounds the ranking; 0 means the default of 10.
	N int `json:"n,omitempty"`
}

// AdviseRequest is the body of POST /v2/advise: the constraints plus the
// history window the ranking statistics are computed over. A zero window
// defaults to the last 24 hours.
type AdviseRequest struct {
	AdviseConstraints
	Window
}

// AdviseCandidate is one ranked market recommendation. Every statistic is
// computed over the request window from the store's own observations;
// markets the service has no price samples for are not candidates.
type AdviseCandidate struct {
	// Rank is the 1-based position in the ranking.
	Rank   int    `json:"rank"`
	Market string `json:"market"`
	// VCPU and MemoryGB are the instance type's capacity attributes.
	VCPU     int     `json:"vcpu"`
	MemoryGB float64 `json:"memoryGB"`
	// OnDemandPrice is the catalog on-demand price for the market.
	OnDemandPrice float64 `json:"onDemandPrice"`
	// Spot price statistics over the window.
	SpotPriceMin  float64 `json:"spotPriceMin"`
	SpotPriceMean float64 `json:"spotPriceMean"`
	SpotPriceMax  float64 `json:"spotPriceMax"`
	PriceSamples  int     `json:"priceSamples"`
	// SavingsPcnt is the mean spot discount vs on-demand, in percent.
	SavingsPcnt float64 `json:"savingsPcnt"`
	// Crossings counts spot-above-on-demand price crossings in the window.
	Crossings int `json:"crossings"`
	// InterruptionRate estimates P(revocation within 1h) for a bid equal
	// to the on-demand price, from the window's crossing rate, in [0,1].
	InterruptionRate float64 `json:"interruptionRate"`
	// SpotUnavailability is the detected spot-tier outage fraction of the
	// window.
	SpotUnavailability float64 `json:"spotUnavailability"`
	// Revocations counts completed revocation-watch observations.
	Revocations int `json:"revocations"`
	// LiveOutage reports an outage (either tier) open at the window end.
	LiveOutage bool `json:"liveOutage"`
	// Score is the composite ranking score in [0,100]; higher is better.
	Score float64 `json:"score"`
}

// AdviseResult is the payload of one advise answer: the resolved window
// and the ranked candidates (empty when no market satisfies the
// constraints — that is a valid answer, not an error).
type AdviseResult struct {
	From       time.Time         `json:"from"`
	To         time.Time         `json:"to"`
	Candidates []AdviseCandidate `json:"candidates"`
}

// AdviseResponse is the body of a successful POST /v2/advise: the service
// clock the window resolved against plus the result.
type AdviseResponse struct {
	Now time.Time `json:"now"`
	AdviseResult
}
