// Package demand generates the seeded stochastic demand that drives the
// cloud simulator: diurnal/weekly load cycles, AR(1) noise, flash-crowd
// spikes, and the spot-market bid-side parameters. Every process is
// deterministic under a fixed seed, which makes studies, tests, and
// benchmarks reproducible.
//
// The statistical features are chosen to reproduce the qualitative
// observations of the paper's Chapter 5: a few under-provisioned regions
// dominate on-demand unavailability (§5.2.2), demand is partially
// correlated across availability zones because AZ-unspecified requests
// spill over (§3.2.2, §5.2.3), outage durations are short with a heavy
// tail (§5.2.4), and spot prices sit near a deep discount with occasional
// spikes past the on-demand price (§5.1).
package demand

import "spotlight/internal/market"

// Profile captures the demand character of one region.
type Profile struct {
	// Provision is the capacity headroom factor: the ratio of the
	// on-demand capacity bound to the region's typical peak demand.
	// Values below ~1.05 produce regular saturation at daily peaks;
	// larger values make outages rare. (§5.2.2: us-east-1 is
	// well-provisioned, sa-east-1 / ap-southeast-* are not.)
	Provision float64

	// Volatility is the standard deviation of the AR(1) multiplicative
	// noise on on-demand load.
	Volatility float64

	// SpikeRatePerDay is the expected number of flash-crowd demand
	// spikes per capacity pool per day.
	SpikeRatePerDay float64

	// MarketSpikeRatePerDay is the expected number of spot-demand spikes
	// per spot market per day (spot-side surges that move the spot price
	// without any on-demand shortage).
	MarketSpikeRatePerDay float64

	// RegionalShare is the fraction of noise and spike energy shared by
	// every availability zone in the region (the rest is AZ-local). It
	// controls the cross-AZ unavailability coupling of Fig 5.8.
	RegionalShare float64

	// PoolScale multiplies the base pool capacity; larger regions have
	// more physical servers behind each market.
	PoolScale float64

	// SpotCNABase is the peak probability that a spot request is refused
	// with capacity-not-available when the spot price is pinned at the
	// low-price floor (§5.3: EC2 withholds capacity it would otherwise
	// sell below its operating cost).
	SpotCNABase float64
}

// DefaultProfiles returns the per-region demand profiles used by the
// study. The ordering of provisioning quality follows the paper's
// Figure 5.5/5.6 observations.
func DefaultProfiles() map[market.Region]Profile {
	return map[market.Region]Profile{
		"us-east-1":      {Provision: 1.35, Volatility: 0.05, SpikeRatePerDay: 0.12, MarketSpikeRatePerDay: 2.2, RegionalShare: 0.30, PoolScale: 4.0, SpotCNABase: 0.055},
		"us-west-2":      {Provision: 1.28, Volatility: 0.05, SpikeRatePerDay: 0.12, MarketSpikeRatePerDay: 1.8, RegionalShare: 0.30, PoolScale: 2.5, SpotCNABase: 0.025},
		"us-west-1":      {Provision: 1.20, Volatility: 0.06, SpikeRatePerDay: 0.18, MarketSpikeRatePerDay: 1.8, RegionalShare: 0.30, PoolScale: 1.6, SpotCNABase: 0.025},
		"eu-west-1":      {Provision: 1.22, Volatility: 0.06, SpikeRatePerDay: 0.15, MarketSpikeRatePerDay: 1.8, RegionalShare: 0.30, PoolScale: 2.2, SpotCNABase: 0.02},
		"eu-central-1":   {Provision: 1.18, Volatility: 0.06, SpikeRatePerDay: 0.20, MarketSpikeRatePerDay: 1.8, RegionalShare: 0.30, PoolScale: 1.4, SpotCNABase: 0.02},
		"ap-northeast-1": {Provision: 1.15, Volatility: 0.07, SpikeRatePerDay: 0.22, MarketSpikeRatePerDay: 2.0, RegionalShare: 0.30, PoolScale: 1.8, SpotCNABase: 0.025},
		"ap-southeast-1": {Provision: 1.08, Volatility: 0.08, SpikeRatePerDay: 0.35, MarketSpikeRatePerDay: 2.4, RegionalShare: 0.35, PoolScale: 1.2, SpotCNABase: 0.025},
		"ap-southeast-2": {Provision: 1.06, Volatility: 0.08, SpikeRatePerDay: 0.40, MarketSpikeRatePerDay: 2.4, RegionalShare: 0.35, PoolScale: 1.2, SpotCNABase: 0.025},
		"sa-east-1":      {Provision: 1.02, Volatility: 0.10, SpikeRatePerDay: 0.55, MarketSpikeRatePerDay: 3.0, RegionalShare: 0.40, PoolScale: 1.0, SpotCNABase: 0.04},
	}
}
