package core

import (
	"fmt"
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
	"spotlight/internal/simtime"
)

// fakeProvider is a scripted Provider for unit-testing the probing policy
// without the full simulator. Only markets present in prices are reported
// by EachRegionPrice, which keeps each test focused on a handful of
// markets.
type fakeProvider struct {
	now time.Time
	cat *market.Catalog

	prices  map[market.SpotID]float64 // published price feed
	odDown  map[market.SpotID]bool    // true => RunInstance returns ICC
	spotCNA map[market.SpotID]bool    // true => spot requests go capacity-not-available
	truePrc map[market.SpotID]float64 // bids below this lose (price-too-low)

	instances map[cloud.InstanceID]*cloud.Instance
	requests  map[cloud.RequestID]*cloud.SpotRequest

	nextInst int
	nextReq  int

	runCalls  []market.SpotID
	spotCalls []market.SpotID
	spotBids  []float64

	runErr error // forced error for every RunInstance when set
}

func newFakeProvider() *fakeProvider {
	return &fakeProvider{
		now:       simtime.StudyEpoch,
		cat:       market.New(),
		prices:    make(map[market.SpotID]float64),
		odDown:    make(map[market.SpotID]bool),
		spotCNA:   make(map[market.SpotID]bool),
		truePrc:   make(map[market.SpotID]float64),
		instances: make(map[cloud.InstanceID]*cloud.Instance),
		requests:  make(map[cloud.RequestID]*cloud.SpotRequest),
	}
}

func (f *fakeProvider) advance(d time.Duration) { f.now = f.now.Add(d) }

func (f *fakeProvider) Now() time.Time           { return f.now }
func (f *fakeProvider) Catalog() *market.Catalog { return f.cat }

func (f *fakeProvider) RunInstance(m market.SpotID) (cloud.Instance, error) {
	f.runCalls = append(f.runCalls, m)
	if f.runErr != nil {
		return cloud.Instance{}, f.runErr
	}
	if f.odDown[m] {
		return cloud.Instance{}, &cloud.APIError{
			Code:    cloud.ErrInsufficientCapacity,
			Message: "scripted outage",
		}
	}
	f.nextInst++
	inst := &cloud.Instance{
		ID:     cloud.InstanceID(fmt.Sprintf("i-fake%04d", f.nextInst)),
		Market: m,
		State:  cloud.InstanceRunning,
		Launch: f.now,
	}
	f.instances[inst.ID] = inst
	return *inst, nil
}

func (f *fakeProvider) TerminateInstance(id cloud.InstanceID) error {
	inst, ok := f.instances[id]
	if !ok {
		return &cloud.APIError{Code: cloud.ErrNotFound, Message: string(id)}
	}
	inst.State = cloud.InstanceTerminated
	inst.End = f.now
	return nil
}

// revoke scripts a platform revocation of a held spot instance.
func (f *fakeProvider) revoke(id cloud.InstanceID) {
	inst := f.instances[id]
	inst.State = cloud.InstanceTerminated
	inst.End = f.now
	inst.Revoked = true
}

func (f *fakeProvider) DescribeInstance(id cloud.InstanceID) (cloud.Instance, error) {
	inst, ok := f.instances[id]
	if !ok {
		return cloud.Instance{}, &cloud.APIError{Code: cloud.ErrNotFound, Message: string(id)}
	}
	return *inst, nil
}

func (f *fakeProvider) RequestSpotInstance(m market.SpotID, bid float64) (cloud.SpotRequest, error) {
	f.spotCalls = append(f.spotCalls, m)
	f.spotBids = append(f.spotBids, bid)
	f.nextReq++
	req := &cloud.SpotRequest{
		ID:      cloud.RequestID(fmt.Sprintf("sir-fake%04d", f.nextReq)),
		Market:  m,
		Bid:     bid,
		Created: f.now,
		Updated: f.now,
	}
	f.requests[req.ID] = req
	f.evaluate(req)
	return *req, nil
}

// evaluate applies the scripted market conditions to a request.
func (f *fakeProvider) evaluate(req *cloud.SpotRequest) {
	switch {
	case f.spotCNA[req.Market]:
		req.State = cloud.SpotCapacityNotAvailable
	case req.Bid < f.truePrc[req.Market]:
		req.State = cloud.SpotPriceTooLow
	default:
		f.nextInst++
		inst := &cloud.Instance{
			ID:     cloud.InstanceID(fmt.Sprintf("i-fake%04d", f.nextInst)),
			Market: req.Market,
			Spot:   true,
			Bid:    req.Bid,
			State:  cloud.InstanceRunning,
			Launch: f.now,
		}
		f.instances[inst.ID] = inst
		req.Instance = inst.ID
		req.State = cloud.SpotFulfilled
	}
	req.Updated = f.now
}

func (f *fakeProvider) CancelSpotRequest(id cloud.RequestID) error {
	req, ok := f.requests[id]
	if !ok {
		return &cloud.APIError{Code: cloud.ErrNotFound, Message: string(id)}
	}
	if req.State.Held() {
		req.State = cloud.SpotCancelled
	}
	return nil
}

func (f *fakeProvider) DescribeSpotRequest(id cloud.RequestID) (cloud.SpotRequest, error) {
	req, ok := f.requests[id]
	if !ok {
		return cloud.SpotRequest{}, &cloud.APIError{Code: cloud.ErrNotFound, Message: string(id)}
	}
	// Held requests are re-evaluated against current conditions, like the
	// real platform does every tick.
	if req.State.Held() {
		req.State = cloud.SpotPendingEvaluation
		f.evaluate(req)
	}
	return *req, nil
}

func (f *fakeProvider) DescribeSpotRequests(r market.Region, ids []cloud.RequestID) (map[cloud.RequestID]cloud.SpotRequest, error) {
	out := make(map[cloud.RequestID]cloud.SpotRequest, len(ids))
	for _, id := range ids {
		req, err := f.DescribeSpotRequest(id)
		if err != nil {
			continue
		}
		if req.Market.Region() != r {
			continue
		}
		out[id] = req
	}
	return out, nil
}

func (f *fakeProvider) EachRegionPrice(r market.Region, fn func(cloud.MarketPrice)) {
	for i, id := range f.cat.SpotMarkets() {
		if id.Region() != r {
			continue
		}
		price, ok := f.prices[id]
		if !ok {
			continue
		}
		od, err := f.cat.SpotODPrice(id)
		if err != nil {
			continue
		}
		fn(cloud.MarketPrice{ID: id, Index: i, Spot: price, OnDemand: od})
	}
}

func (f *fakeProvider) OnDemandPrice(m market.SpotID) (float64, error) {
	return f.cat.SpotODPrice(m)
}

var _ Provider = (*fakeProvider)(nil)

// countRuns counts RunInstance calls per market.
func (f *fakeProvider) countRuns(m market.SpotID) int {
	n := 0
	for _, c := range f.runCalls {
		if c == m {
			n++
		}
	}
	return n
}
