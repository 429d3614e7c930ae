package cloud

import (
	"fmt"
	"time"

	"spotlight/internal/market"
)

// maxBidMultiple is EC2's bid cap: ten times the on-demand price,
// introduced after the $1000/hour spike (§2.1.3).
const maxBidMultiple = 10.0

// RunInstance requests one on-demand instance in the zone/type/product of
// m. On success the instance is running and billing starts; the paper's
// probes terminate it immediately and still pay the one-hour minimum.
// Failure modes: InvalidParameterValue for unknown markets,
// RequestLimitExceeded / InstanceLimitExceeded for quota violations, and
// InsufficientInstanceCapacity when the pool cannot host the instance —
// the signal SpotLight exists to observe.
func (s *Sim) RunInstance(m market.SpotID) (Instance, error) {
	idx, ok := s.marketIdx[m]
	if !ok {
		return Instance{}, apiErrorf(ErrBadParameters, "unknown market %v", m)
	}
	mr := s.markets[idx]
	region := m.Region()
	if err := s.chargeAPICall(region); err != nil {
		return Instance{}, err
	}
	reg := s.regions[region]
	if reg.runningByType[m.Type] >= s.cfg.MaxRunningPerType {
		return Instance{}, apiErrorf(ErrInstanceLimitExceeded,
			"at most %d running %s instances per region", s.cfg.MaxRunningPerType, m.Type)
	}
	units, err := s.cat.Units(m.Type)
	if err != nil {
		return Instance{}, apiErrorf(ErrBadParameters, "%v", err)
	}
	pool := s.pools[mr.poolIdx]
	if s.odFreeUnits(pool) < units {
		return Instance{}, apiErrorf(ErrInsufficientCapacity,
			"no on-demand capacity for %s in %s", m.Type, m.Zone)
	}

	inst := &Instance{
		ID:        s.newInstanceID(),
		Market:    m,
		State:     InstanceRunning,
		Launch:    s.clock.Now(),
		units:     units,
		poolIdx:   mr.poolIdx,
		marketIdx: idx,
	}
	s.instances[inst.ID] = inst
	pool.clientODUnits += units
	reg.runningByType[m.Type]++
	return *inst, nil
}

// TerminateInstance stops a running instance. The instance releases its
// capacity immediately, moves to shutting-down, and reaches terminated on
// the next tick (Fig 3.1). Terminating an already-terminating instance is
// a harmless no-op, as in EC2.
func (s *Sim) TerminateInstance(id InstanceID) error {
	inst, ok := s.instances[id]
	if !ok {
		return apiErrorf(ErrNotFound, "instance %s", id)
	}
	if err := s.chargeAPICall(inst.Market.Region()); err != nil {
		return err
	}
	switch inst.State {
	case InstanceShuttingDown, InstanceTerminated:
		return nil
	}
	s.releaseAndBill(inst, s.clock.Now(), false)
	inst.State = InstanceShuttingDown
	if inst.Spot {
		if req := s.instToReq[inst.ID]; req != nil && req.State == SpotFulfilled {
			s.transitionSpot(req, SpotInstanceTerminatedByUser, s.clock.Now())
		}
		// A user-terminated spot instance leaves the revocation watch.
		inst.WarningAt = time.Time{}
	}
	s.pendingShutdown = append(s.pendingShutdown, inst)
	return nil
}

// DescribeInstance returns a copy of the instance's current view.
func (s *Sim) DescribeInstance(id InstanceID) (Instance, error) {
	inst, ok := s.instances[id]
	if !ok {
		return Instance{}, apiErrorf(ErrNotFound, "instance %s", id)
	}
	return *inst, nil
}

// RequestSpotInstance submits a one-instance spot request at the given
// maximum bid price. Malformed bids (non-positive, or above the 10x
// on-demand cap) yield a request parked in bad-parameters, mirroring
// Fig 3.2; quota violations return errors. All other outcomes are
// expressed through the returned request's status: fulfilled,
// price-too-low, capacity-not-available, or capacity-oversubscribed.
func (s *Sim) RequestSpotInstance(m market.SpotID, bid float64) (SpotRequest, error) {
	idx, ok := s.marketIdx[m]
	if !ok {
		return SpotRequest{}, apiErrorf(ErrBadParameters, "unknown market %v", m)
	}
	region := m.Region()
	if err := s.chargeAPICall(region); err != nil {
		return SpotRequest{}, err
	}
	reg := s.regions[region]
	if reg.openSpotReqs >= s.cfg.MaxOpenSpotRequestsPerRegion {
		return SpotRequest{}, apiErrorf(ErrSpotRequestLimitExceeded,
			"at most %d open spot requests per region", s.cfg.MaxOpenSpotRequestsPerRegion)
	}

	mr := s.markets[idx]
	units, err := s.cat.Units(m.Type)
	if err != nil {
		return SpotRequest{}, apiErrorf(ErrBadParameters, "%v", err)
	}
	now := s.clock.Now()
	req := &SpotRequest{
		ID:        s.newRequestID(),
		Market:    m,
		Bid:       bid,
		State:     SpotPendingEvaluation,
		Created:   now,
		Updated:   now,
		History:   []SpotTransition{{At: now, State: SpotPendingEvaluation}},
		units:     units,
		poolIdx:   mr.poolIdx,
		marketIdx: idx,
	}
	s.spotReqs[req.ID] = req

	if bid <= 0 || bid > maxBidMultiple*mr.odPrice {
		s.transitionSpot(req, SpotBadParameters, now)
		return s.viewSpot(req), nil
	}
	reg.openSpotReqs++
	s.heldReqs[req.ID] = req
	s.evaluateSpot(req, now)
	return s.viewSpot(req), nil
}

// CancelSpotRequest cancels an open spot request. Cancelling a fulfilled
// request leaves its instance running
// (request-canceled-and-instance-running); cancelling a held request
// closes it. Cancelling a terminal request is a no-op.
func (s *Sim) CancelSpotRequest(id RequestID) error {
	req, ok := s.spotReqs[id]
	if !ok {
		return apiErrorf(ErrNotFound, "spot request %s", id)
	}
	if err := s.chargeAPICall(req.Market.Region()); err != nil {
		return err
	}
	now := s.clock.Now()
	switch {
	case req.State.Terminal():
		return nil
	case req.State == SpotFulfilled:
		s.transitionSpot(req, SpotRequestCanceledInstanceRunning, now)
	case req.State == SpotMarkedForTermination:
		return nil // revocation already in flight; it will complete
	default:
		s.transitionSpot(req, SpotCancelled, now)
	}
	return nil
}

// DescribeSpotRequest returns a copy of the request's current view,
// including its full transition history.
func (s *Sim) DescribeSpotRequest(id RequestID) (SpotRequest, error) {
	req, ok := s.spotReqs[id]
	if !ok {
		return SpotRequest{}, apiErrorf(ErrNotFound, "spot request %s", id)
	}
	return s.viewSpot(req), nil
}

// DescribeSpotRequests returns current views for a batch of request IDs in
// one API call — the batched read Chapter 4's region managers rely on
// ("to manage limits and get requests states within one API call for each
// region"). Unknown IDs are skipped; the result maps ID to view.
func (s *Sim) DescribeSpotRequests(region market.Region, ids []RequestID) (map[RequestID]SpotRequest, error) {
	if err := s.chargeAPICall(region); err != nil {
		return nil, err
	}
	out := make(map[RequestID]SpotRequest, len(ids))
	for _, id := range ids {
		req, ok := s.spotReqs[id]
		if !ok || req.Market.Region() != region {
			continue
		}
		out[id] = s.viewSpot(req)
	}
	return out, nil
}

// SpotPrice returns the market's current published spot price. The
// published feed lags the true clearing price by the configured
// propagation delay (§5.1.2), which is why a bid at the published price
// can lose during volatility.
func (s *Sim) SpotPrice(m market.SpotID) (float64, error) {
	idx, ok := s.marketIdx[m]
	if !ok {
		return 0, apiErrorf(ErrBadParameters, "unknown market %v", m)
	}
	return s.markets[idx].published, nil
}

// OnDemandPrice returns the fixed on-demand price for the market's
// type/product in its region.
func (s *Sim) OnDemandPrice(m market.SpotID) (float64, error) {
	return s.cat.SpotODPrice(m)
}

// MarketPrice is one row of a region price snapshot.
type MarketPrice struct {
	ID market.SpotID
	// Index is the market's dense catalog index: its position in
	// Catalog.SpotMarkets(), so a consumer can address per-market state
	// by slice instead of hashing ID.
	Index    int
	Spot     float64
	OnDemand float64
}

// EachRegionPrice invokes fn for every spot market of region r, in
// catalog order, with its current published price. This is the batch
// "one API call per region" read path Chapter 4's region managers rely
// on. An unknown region yields nothing.
func (s *Sim) EachRegionPrice(r market.Region, fn func(MarketPrice)) {
	reg := s.regions[r]
	if reg == nil {
		return
	}
	for _, i := range reg.markets {
		m := s.markets[i]
		fn(MarketPrice{ID: m.id, Index: i, Spot: m.published, OnDemand: m.odPrice})
	}
}

// Internal machinery -----------------------------------------------------

// chargeAPICall enforces the per-region per-tick API budget.
func (s *Sim) chargeAPICall(r market.Region) error {
	reg, ok := s.regions[r]
	if !ok {
		return apiErrorf(ErrBadParameters, "unknown region %q", r)
	}
	if reg.apiCalls >= s.cfg.APICallsPerTickPerRegion {
		return apiErrorf(ErrRequestLimitExceeded, "API budget for %s exhausted this tick", r)
	}
	reg.apiCalls++
	return nil
}

// evaluateSpot runs one evaluation pass over a held (or fresh) request,
// applying Fig 3.2's outcome set in the order the platform would: price
// first, then capacity, then contention.
func (s *Sim) evaluateSpot(req *SpotRequest, now time.Time) {
	m := s.markets[req.marketIdx]
	p := s.pools[req.poolIdx]
	switch {
	case req.Bid < m.truePrice:
		s.holdSpot(req, SpotPriceTooLow, now)
	case m.cnaActive || float64(req.units) > p.spotSupplyUnits:
		s.holdSpot(req, SpotCapacityNotAvailable, now)
	case req.Bid <= m.truePrice+priceTick && m.lastQ > 0.85:
		// Bids tied at the clearing price when nearly all demand is
		// above it: too many winners for the marginal capacity.
		s.holdSpot(req, SpotCapacityOversubscribed, now)
	default:
		s.fulfillSpot(req, now)
	}
}

// holdSpot parks a request in a waiting state (idempotently).
func (s *Sim) holdSpot(req *SpotRequest, state SpotRequestState, now time.Time) {
	if req.State == state {
		req.Updated = now
		return
	}
	s.transitionSpot(req, state, now)
}

// fulfillSpot launches the instance behind a winning request.
func (s *Sim) fulfillSpot(req *SpotRequest, now time.Time) {
	if req.State != SpotPendingFulfillment {
		s.transitionSpot(req, SpotPendingFulfillment, now)
	}
	m := s.markets[req.marketIdx]
	inst := &Instance{
		ID:        s.newInstanceID(),
		Market:    req.Market,
		Spot:      true,
		Bid:       req.Bid,
		State:     InstanceRunning,
		Launch:    now,
		units:     req.units,
		poolIdx:   req.poolIdx,
		marketIdx: req.marketIdx,
	}
	inst.launchPrice = m.truePrice
	s.instances[inst.ID] = inst
	s.liveSpot[inst.ID] = inst
	s.instToReq[inst.ID] = req
	s.pools[req.poolIdx].clientSpotUnits += req.units
	req.Instance = inst.ID
	s.transitionSpot(req, SpotFulfilled, now)
}

// transitionSpot applies one Fig 3.2 transition, recording it. Illegal
// transitions are programming errors and panic so tests catch them.
func (s *Sim) transitionSpot(req *SpotRequest, to SpotRequestState, now time.Time) {
	if !canSpotTransition(req.State, to) {
		panic(fmt.Sprintf("cloud: illegal spot transition %v -> %v for %s", req.State, to, req.ID))
	}
	// Quota bookkeeping keys off actual registration in heldReqs, not
	// the state alone: a request rejected at validation (bad-parameters)
	// is born in a held state but never occupied a quota slot.
	_, wasRegistered := s.heldReqs[req.ID]
	req.State = to
	req.Updated = now
	req.History = append(req.History, SpotTransition{At: now, State: to})
	if wasRegistered && !to.Held() {
		delete(s.heldReqs, req.ID)
		if reg := s.regions[req.Market.Region()]; reg != nil && reg.openSpotReqs > 0 {
			reg.openSpotReqs--
		}
	}
	if to.Terminal() {
		s.retired = append(s.retired, retiredEntry{req: req.ID, at: now})
	}
}

// finishTermination completes an instance shutdown (Fig 3.1
// shutting-down -> terminated) and, for revocations, finalizes the spot
// request as instance-terminated-by-price.
func (s *Sim) finishTermination(inst *Instance, now time.Time, revoked bool) {
	if inst.State == InstanceTerminated {
		return
	}
	if revoked {
		s.releaseAndBill(inst, now, true)
		inst.Revoked = true
		if req := s.instToReq[inst.ID]; req != nil && req.State == SpotMarkedForTermination {
			s.transitionSpot(req, SpotInstanceTerminatedByPrice, now)
		}
	}
	inst.State = InstanceTerminated
	inst.End = now
	delete(s.liveSpot, inst.ID)
	s.retired = append(s.retired, retiredEntry{inst: inst.ID, at: now})
}

// releaseAndBill returns the instance's capacity to its pool and charges
// the client: on-demand and user-terminated spot pay a one-hour minimum;
// a revoked spot instance's interrupted hour is free, per EC2's policy;
// spot blocks were billed up front and only release capacity here.
func (s *Sim) releaseAndBill(inst *Instance, now time.Time, revoked bool) {
	if inst.released {
		return
	}
	inst.released = true
	pool := s.pools[inst.poolIdx]
	if inst.Spot {
		pool.clientSpotUnits -= inst.units
		if pool.clientSpotUnits < 0 {
			pool.clientSpotUnits = 0
		}
		if inst.IsBlock() {
			s.regions[inst.Market.Region()].runningByType[inst.Market.Type]--
			delete(s.blocks, inst.ID)
		}
	} else {
		pool.clientODUnits -= inst.units
		if pool.clientODUnits < 0 {
			pool.clientODUnits = 0
		}
		s.regions[inst.Market.Region()].runningByType[inst.Market.Type]--
	}
	if inst.billed {
		return // blocks are prepaid
	}
	inst.billed = true

	rate := s.markets[inst.marketIdx].odPrice
	if inst.Spot {
		rate = inst.launchPrice
	}
	s.clientCost += s.billableHours(now.Sub(inst.Launch), revoked) * rate
}

// billableHours converts a runtime into billed hours under the configured
// charging model: at least MinimumCharge, rounded up to BillingIncrement
// (§2.2's one-hour minimum by default). A platform revocation forgives
// the interrupted increment, per EC2's policy.
func (s *Sim) billableHours(dur time.Duration, revoked bool) float64 {
	inc := s.cfg.BillingIncrement
	if revoked {
		return (dur / inc * inc).Hours() // interrupted increment is free
	}
	if dur < s.cfg.MinimumCharge {
		dur = s.cfg.MinimumCharge
	}
	rounded := ((dur + inc - 1) / inc) * inc
	return rounded.Hours()
}

func (s *Sim) newInstanceID() InstanceID {
	s.nextInstance++
	return InstanceID(fmt.Sprintf("i-%07d", s.nextInstance))
}

func (s *Sim) newRequestID() RequestID {
	s.nextRequest++
	return RequestID(fmt.Sprintf("sir-%07d", s.nextRequest))
}

// viewSpot deep-copies a request so callers cannot mutate internal state.
func (s *Sim) viewSpot(req *SpotRequest) SpotRequest {
	out := *req
	out.History = make([]SpotTransition, len(req.History))
	copy(out.History, req.History)
	return out
}
