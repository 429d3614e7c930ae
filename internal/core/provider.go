// Package core implements the SpotLight service itself — the paper's
// contribution. SpotLight passively monitors the spot price of every
// market, actively probes the platform when prices spike past a threshold
// (market-based probing, §3.1-3.2), fans out to related markets in the
// same family and across availability zones, periodically verifies spot
// capacity, discovers intrinsic bid prices, and logs everything into its
// database for the query interface.
//
// The service is written against a narrow Provider interface so the same
// code drives the discrete-time simulator in studies and could drive a
// real cloud API in deployment.
package core

import (
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
)

// Provider is the slice of the platform API SpotLight consumes. It is
// implemented by *cloud.Sim.
type Provider interface {
	// Now returns the platform's current time.
	Now() time.Time
	// Catalog returns the market topology.
	Catalog() *market.Catalog

	// RunInstance requests one on-demand server (§2.2: "a probe is
	// simply a request for an on-demand or spot server").
	RunInstance(m market.SpotID) (cloud.Instance, error)
	// TerminateInstance stops a server SpotLight holds.
	TerminateInstance(id cloud.InstanceID) error
	// DescribeInstance reads back an instance's state.
	DescribeInstance(id cloud.InstanceID) (cloud.Instance, error)

	// RequestSpotInstance submits a one-instance spot bid.
	RequestSpotInstance(m market.SpotID, bid float64) (cloud.SpotRequest, error)
	// CancelSpotRequest cancels an open spot request.
	CancelSpotRequest(id cloud.RequestID) error
	// DescribeSpotRequest reads back a spot request's state.
	DescribeSpotRequest(id cloud.RequestID) (cloud.SpotRequest, error)
	// DescribeSpotRequests reads back many requests of one region in a
	// single API call (Chapter 4: region managers batch state reads to
	// stay inside API limits).
	DescribeSpotRequests(r market.Region, ids []cloud.RequestID) (map[cloud.RequestID]cloud.SpotRequest, error)

	// EachRegionPrice streams the current published spot price of every
	// market in a region — the batched per-region read Chapter 4's
	// region managers use to stay inside API limits. Each row's Index
	// must be the market's position in Catalog().SpotMarkets(): the
	// region scan addresses its monitors by it.
	EachRegionPrice(r market.Region, fn func(cloud.MarketPrice))
	// OnDemandPrice returns the market's fixed on-demand price.
	OnDemandPrice(m market.SpotID) (float64, error)
}

var _ Provider = (*cloud.Sim)(nil)
