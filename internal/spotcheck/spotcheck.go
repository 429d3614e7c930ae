// Package spotcheck reproduces the paper's first case study (§6.1):
// SpotCheck, a derivative IaaS platform that hosts nested VMs on spot
// servers and live-migrates them to on-demand servers when the spot price
// rises above the on-demand price. SpotCheck assumes the on-demand
// fallback is always obtainable; the paper shows that assumption fails
// exactly when it matters (revocations coincide with on-demand outages),
// dropping availability from four nines to ~72-92% (Fig 6.1) — and that
// choosing an uncorrelated fallback market with SpotLight's data restores
// it to near 100%.
package spotcheck

import (
	"errors"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// Platform answers on-demand obtainability questions; in studies it is
// backed by the simulator's ground truth.
type Platform interface {
	// ODAvailable reports whether an on-demand instance of m's type was
	// obtainable at instant t.
	ODAvailable(m market.SpotID, t time.Time) bool
}

// FallbackPolicy selects the on-demand market to migrate to when the spot
// server is revoked at instant t. Returning the VM's own market is the
// paper's baseline SpotCheck behaviour.
type FallbackPolicy func(t time.Time) market.SpotID

// EventSteeredFallback builds a FallbackPolicy that reacts to pushed
// SpotLight events instead of polling: signaled(t) reports whether any
// relevant event (a revocation or outage in the fallback's scope —
// typically drained from a store feed subscription or a
// pkg/client.Watch stream) arrived since the last decision at instant t,
// and recompute asks SpotLight for the current best uncorrelated target.
// The policy recomputes on first use and again only when signaled — the
// SpotCheck control loop then refreshes its steering the moment the
// information service learns something, not on a timer.
func EventSteeredFallback(signaled func(t time.Time) bool, recompute func(t time.Time) market.SpotID) FallbackPolicy {
	var cached market.SpotID
	have := false
	return func(t time.Time) market.SpotID {
		if signaled(t) || !have {
			cached = recompute(t)
			have = true
		}
		return cached
	}
}

// Config parameterizes one SpotCheck availability simulation.
type Config struct {
	// Market hosts the nested VM's spot server.
	Market market.SpotID
	// ODPrice is the market's on-demand price; the VM bids exactly this
	// (SpotCheck migrates whenever spot > on-demand).
	ODPrice float64
	// Trace is the market's published spot price history (step function).
	Trace []store.PricePoint
	// Platform answers fallback obtainability.
	Platform Platform
	// Fallback picks the migration target; nil means the same market
	// (the paper's baseline).
	Fallback FallbackPolicy
	// Tick is the evaluation granularity. Default 1 minute.
	Tick time.Duration
	// From/To bound the simulation; zero values use the trace extent.
	From, To time.Time
}

// Result is the outcome of one SpotCheck simulation.
type Result struct {
	Market market.SpotID
	// AvailabilityPct is uptime as a percentage of the window.
	AvailabilityPct float64
	// Revocations is how many times the spot server was revoked.
	Revocations int
	// FailedFailovers is how many revocations found the fallback
	// on-demand market unavailable — the paper's key observation.
	FailedFailovers int
	Downtime        time.Duration
	Window          time.Duration
	// OnSpotFraction is the share of time served from spot servers
	// (the cost story: high means near-spot prices).
	OnSpotFraction float64
	// MeanHourlyCost is the time-weighted price paid per hour: spot
	// price while on spot, on-demand price while failed over. The
	// paper's cost claim ("the availability of on-demand servers for a
	// cost near that of spot servers") holds when this sits well below
	// the on-demand price.
	MeanHourlyCost float64
}

// migrationPause is the nested VM pause per migration: the bounded final
// memory copy (§6.1).
const migrationPause = time.Second

// vmState is where the nested VM currently runs.
type vmState int

const (
	onSpot vmState = iota + 1
	onDemand
	down
)

// Run simulates the nested VM over the trace window.
func Run(cfg Config) (Result, error) {
	if len(cfg.Trace) == 0 {
		return Result{}, errors.New("spotcheck: empty price trace")
	}
	if cfg.Platform == nil {
		return Result{}, errors.New("spotcheck: nil platform")
	}
	if cfg.ODPrice <= 0 {
		return Result{}, errors.New("spotcheck: non-positive on-demand price")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Minute
	}
	if cfg.From.IsZero() {
		cfg.From = cfg.Trace[0].At
	}
	if cfg.To.IsZero() {
		cfg.To = cfg.Trace[len(cfg.Trace)-1].At
	}
	if !cfg.To.After(cfg.From) {
		return Result{}, errors.New("spotcheck: empty window")
	}
	fallback := cfg.Fallback
	if fallback == nil {
		fallback = func(time.Time) market.SpotID { return cfg.Market }
	}

	res := Result{Market: cfg.Market, Window: cfg.To.Sub(cfg.From)}
	var (
		state     = onSpot
		spotTime  time.Duration
		traceIdx  int
		spotPrice = cfg.Trace[0].Price
		totalCost float64
		tickHours = cfg.Tick.Hours()
	)
	priceAt := func(t time.Time) float64 {
		for traceIdx+1 < len(cfg.Trace) && !cfg.Trace[traceIdx+1].At.After(t) {
			traceIdx++
		}
		return cfg.Trace[traceIdx].Price
	}

	migrate := func(t time.Time) {
		// A bounded-time live migration pauses the VM briefly.
		res.Downtime += migrationPause
	}

	for t := cfg.From; t.Before(cfg.To); t = t.Add(cfg.Tick) {
		spotPrice = priceAt(t)
		switch state {
		case onSpot:
			spotTime += cfg.Tick
			totalCost += spotPrice * tickHours
			if spotPrice > cfg.ODPrice {
				// Revocation: the spot price crossed the bid.
				res.Revocations++
				target := fallback(t)
				if cfg.Platform.ODAvailable(target, t) {
					migrate(t)
					state = onDemand
				} else {
					res.FailedFailovers++
					state = down
					res.Downtime += cfg.Tick
				}
			}
		case onDemand:
			totalCost += cfg.ODPrice * tickHours
			if spotPrice <= cfg.ODPrice {
				// Spot is affordable again; migrate back.
				migrate(t)
				state = onSpot
				spotTime += cfg.Tick
			}
		case down:
			switch {
			case spotPrice <= cfg.ODPrice:
				// The spot tier recovered first: resume there.
				migrate(t)
				state = onSpot
				spotTime += cfg.Tick
			case cfg.Platform.ODAvailable(fallback(t), t):
				migrate(t)
				state = onDemand
			default:
				res.Downtime += cfg.Tick
			}
		}
	}

	if res.Downtime > res.Window {
		res.Downtime = res.Window
	}
	res.AvailabilityPct = 100 * (1 - float64(res.Downtime)/float64(res.Window))
	res.OnSpotFraction = float64(spotTime) / float64(res.Window)
	if h := res.Window.Hours(); h > 0 {
		res.MeanHourlyCost = totalCost / h
	}
	return res, nil
}
