package core

import (
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
	"spotlight/internal/store"
)

// probeContext carries the provenance of a probe into its log record.
type probeContext struct {
	trigger       store.Trigger
	triggerMarket market.SpotID
	sourceKind    store.ProbeKind
	spikeRatio    float64
}

// odProbe is Chapter 4's RequestOnDemand/RequestInsufficiency function:
// request one on-demand server, log the outcome, terminate immediately on
// success, and on a capacity rejection start the recovery loop and fan
// out to related markets.
func (s *Service) odProbe(mon *marketMon, now time.Time, ctx probeContext) {
	cost := mon.od // one hour minimum charge if allocated
	if !s.budget.allow(now, cost) {
		s.stats.BudgetDenied++
		return
	}
	id := s.id(mon)
	inst, err := s.prov.RunInstance(id)
	rec := store.ProbeRecord{
		At:            now,
		Market:        id,
		Kind:          store.ProbeOnDemand,
		Trigger:       ctx.trigger,
		TriggerMarket: ctx.triggerMarket,
		SourceKind:    ctx.sourceKind,
		SpikeRatio:    ctx.spikeRatio,
		PriceRatio:    s.priceRatio(mon),
		Cost:          cost,
	}
	s.stats.ODProbes++

	switch {
	case err == nil:
		// Available: pay the hour, release the server (§3.1: "logs the
		// timestamp of the request, and then terminates the server").
		if terr := s.prov.TerminateInstance(inst.ID); terr != nil {
			s.stats.QuotaSkips++
		}
		s.logProbe(mon, rec)
		if mon.odOutage {
			s.closeODOutage(mon)
		}
	case cloud.IsCode(err, cloud.ErrInsufficientCapacity):
		s.budget.refund(cost) // rejected requests are free
		rec.Cost = 0
		rec.Rejected = true
		rec.Code = string(cloud.ErrInsufficientCapacity)
		s.logProbe(mon, rec)
		s.stats.ODRejections++
		s.onODRejection(mon, now, ctx)
	default:
		// Quota or rate-limit errors are SpotLight's own backpressure,
		// not market signal; skip the record so they cannot pollute the
		// outage derivation, and retry on the normal schedules.
		s.budget.refund(cost)
		s.stats.QuotaSkips++
	}
}

// onODRejection implements the RequestInsufficiency policy: schedule
// periodic re-probes until recovery, fan out to the related markets of
// §3.2.1/§3.2.2, and issue the cross spot probe of §5.4.
func (s *Service) onODRejection(mon *marketMon, now time.Time, ctx probeContext) {
	fresh := !mon.odOutage
	if fresh {
		mon.odOutage = true
		mon.spikeRatio = ctx.spikeRatio
		mon.nextODRecheck = now.Add(s.cfg.RecheckInterval).UnixNano()
		s.activeOD[mon.idx] = mon
	}
	// Fan out only on the initial spike-triggered detection; related and
	// recheck probes never recurse (the paper fans out from the trigger
	// market, not transitively).
	if !fresh || ctx.trigger != store.TriggerSpike {
		return
	}
	mon.relatedUntil = now.Add(s.cfg.RelatedWindow).UnixNano()
	mon.nextRelated = now.Add(s.cfg.RelatedRecheckInterval).UnixNano()
	if !s.cfg.DisableFamilyProbing {
		s.probeRelated(mon, now, store.ProbeOnDemand)
	}
	// Cross probe: is the spot side of this market also out (§5.4)?
	s.spotProbe(mon, now, probeContext{
		trigger:       store.TriggerCross,
		triggerMarket: s.id(mon),
		sourceKind:    store.ProbeOnDemand,
		spikeRatio:    ctx.spikeRatio,
	})
}

// probeRelated probes the trigger market's family siblings in the same
// zone and the family across the region's other zones, on both contract
// tiers. sourceKind records which tier's rejection caused the fan-out.
func (s *Service) probeRelated(trigger *marketMon, now time.Time, sourceKind store.ProbeKind) {
	id := s.id(trigger)
	for _, rel := range s.cat.RelatedSameZone(id) {
		s.probeRelatedOne(trigger, rel, now, store.TriggerRelatedSameZone, sourceKind)
	}
	for _, rel := range s.cat.RelatedOtherZones(id) {
		s.probeRelatedOne(trigger, rel, now, store.TriggerRelatedOtherZone, sourceKind)
	}
}

func (s *Service) probeRelatedOne(trigger *marketMon, rel market.SpotID, now time.Time, tr store.Trigger, sourceKind store.ProbeKind) {
	relMon := s.monitor(rel)
	if relMon == nil {
		return
	}
	ctx := probeContext{
		trigger:       tr,
		triggerMarket: s.id(trigger),
		sourceKind:    sourceKind,
		spikeRatio:    trigger.spikeRatio,
	}
	if !relMon.odOutage {
		s.odProbe(relMon, now, ctx)
	}
	if !relMon.spotOutage {
		s.spotProbe(relMon, now, ctx)
	}
}

// spotProbe is Chapter 4's CheckCapacity function: bid the published spot
// price; capacity-not-available marks the spot tier out and (optionally)
// leaves the request held until the platform fulfills it.
func (s *Service) spotProbe(mon *marketMon, now time.Time, ctx probeContext) {
	bid := mon.price
	if bid <= 0 {
		return
	}
	cost := bid // one hour at roughly the spot price if allocated
	if !s.budget.allow(now, cost) {
		s.stats.BudgetDenied++
		return
	}
	id := s.id(mon)
	req, err := s.prov.RequestSpotInstance(id, bid)
	if err != nil {
		s.budget.refund(cost)
		s.stats.QuotaSkips++
		return
	}
	rec := store.ProbeRecord{
		At:            now,
		Market:        id,
		Kind:          store.ProbeSpot,
		Trigger:       ctx.trigger,
		TriggerMarket: ctx.triggerMarket,
		SourceKind:    ctx.sourceKind,
		SpikeRatio:    ctx.spikeRatio,
		PriceRatio:    s.priceRatio(mon),
		Bid:           bid,
		Cost:          cost,
	}
	s.stats.SpotProbes++

	switch req.State {
	case cloud.SpotFulfilled:
		if terr := s.prov.TerminateInstance(req.Instance); terr != nil {
			s.stats.QuotaSkips++
		}
		s.logProbe(mon, rec)
		if mon.spotOutage {
			s.closeSpotOutage(mon)
		}
	case cloud.SpotCapacityNotAvailable:
		s.budget.refund(cost)
		rec.Cost = 0
		rec.Rejected = true
		rec.Code = req.State.String()
		s.logProbe(mon, rec)
		s.stats.SpotRejections++
		s.onSpotRejection(mon, req, now, ctx)
	default:
		// price-too-low / capacity-oversubscribed: capacity exists, the
		// bid just raced the true price. Not an availability failure.
		s.budget.refund(cost)
		rec.Cost = 0
		rec.Code = req.State.String()
		s.logProbe(mon, rec)
		_ = s.prov.CancelSpotRequest(req.ID)
		if mon.spotOutage {
			s.closeSpotOutage(mon)
		}
	}
}

// onSpotRejection starts the spot-side recovery loop: hold the request if
// the per-region hold budget allows (§3.3: "the spot request will be held
// as capacity-not-available until it is available again"), otherwise
// cancel and recheck with fresh probes; then verify the on-demand side
// (Chapter 4: "when spot request held due to market unavailability, issue
// an on-demand instance request to verify the availability of on-demand
// market").
func (s *Service) onSpotRejection(mon *marketMon, req cloud.SpotRequest, now time.Time, ctx probeContext) {
	fresh := !mon.spotOutage
	if fresh {
		mon.spotOutage = true
		mon.nextSpotRecheck = now.Add(s.cfg.RecheckInterval).UnixNano()
		s.activeSpot[mon.idx] = mon
	}
	region := s.id(mon).Region()
	if s.heldCNA[region] < s.cfg.MaxHeldCNAPerRegion && mon.heldReq == "" {
		mon.heldReq = req.ID
		s.heldCNA[region]++
	} else {
		_ = s.prov.CancelSpotRequest(req.ID)
	}
	if !fresh || ctx.trigger == store.TriggerRecheck || ctx.trigger == store.TriggerCross {
		return
	}
	// Cross probe the on-demand side of the same market (§5.4).
	if !mon.odOutage {
		s.odProbe(mon, now, probeContext{
			trigger:       store.TriggerCross,
			triggerMarket: s.id(mon),
			sourceKind:    store.ProbeSpot,
			spikeRatio:    ctx.spikeRatio,
		})
	}
	// Fan out to related markets on both tiers (Fig 5.12's spot-spot and
	// spot-od pairs), except when this rejection is itself fan-out.
	if !s.cfg.DisableFamilyProbing &&
		ctx.trigger != store.TriggerRelatedSameZone && ctx.trigger != store.TriggerRelatedOtherZone {
		s.probeRelated(mon, now, store.ProbeSpot)
	}
}

// handleHeldView advances a held capacity-not-available request from its
// freshly described state: the platform re-evaluates held requests every
// tick, so SpotLight just reads the status and records the recovery when
// it comes.
func (s *Service) handleHeldView(mon *marketMon, req cloud.SpotRequest, now time.Time) {
	id := s.id(mon)
	rec := store.ProbeRecord{
		At:            now,
		Market:        id,
		Kind:          store.ProbeSpot,
		Trigger:       store.TriggerRecheck,
		TriggerMarket: id,
		SourceKind:    store.ProbeSpot,
		PriceRatio:    s.priceRatio(mon),
		Bid:           req.Bid,
	}
	switch req.State {
	case cloud.SpotCapacityNotAvailable:
		// Still out; the hold keeps waiting. Record the observation.
		rec.Rejected = true
		rec.Code = req.State.String()
		s.logProbe(mon, rec)
	case cloud.SpotFulfilled:
		if s.budget.allow(now, req.Bid) {
			rec.Cost = req.Bid
		}
		if terr := s.prov.TerminateInstance(req.Instance); terr != nil {
			s.stats.QuotaSkips++
		}
		s.logProbe(mon, rec)
		s.releaseHold(mon)
		s.closeSpotOutage(mon)
	default:
		// price-too-low etc.: capacity came back at a different price.
		rec.Code = req.State.String()
		s.logProbe(mon, rec)
		_ = s.prov.CancelSpotRequest(req.ID)
		s.releaseHold(mon)
		s.closeSpotOutage(mon)
	}
}

func (s *Service) releaseHold(mon *marketMon) {
	if mon.heldReq == "" {
		return
	}
	region := s.id(mon).Region()
	if s.heldCNA[region] > 0 {
		s.heldCNA[region]--
	}
	mon.heldReq = ""
}

func (s *Service) closeODOutage(mon *marketMon) {
	mon.odOutage = false
	mon.relatedUntil = 0
	delete(s.activeOD, mon.idx)
}

func (s *Service) closeSpotOutage(mon *marketMon) {
	mon.spotOutage = false
	s.releaseHold(mon)
	delete(s.activeSpot, mon.idx)
}

func (s *Service) priceRatio(mon *marketMon) float64 {
	if mon.od <= 0 {
		return 0
	}
	return mon.price / mon.od
}
