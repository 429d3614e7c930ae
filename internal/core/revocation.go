package core

import (
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/store"
)

// runRevocationWatch maintains the Revocation probing function of
// Chapter 4: on each user-selected volatile market, SpotLight keeps one
// spot instance alive at a configured bid and records how long it
// survives before the platform revokes it. The observations feed the
// mean-time-to-revocation ranking the query interface exposes.
func (s *Service) runRevocationWatch(now time.Time) {
	for _, mon := range s.revocationMons {
		if mon.revInstance == "" {
			s.acquireRevocationInstance(mon, now)
			continue
		}
		s.watchRevocationInstance(mon, now)
	}
}

func (s *Service) acquireRevocationInstance(mon *marketMon, now time.Time) {
	bid := s.cfg.RevocationBid * mon.od
	if !s.budget.allow(now, bid) {
		s.stats.BudgetDenied++
		return
	}
	req, err := s.prov.RequestSpotInstance(mon.id, bid)
	if err != nil {
		s.budget.refund(bid)
		s.stats.QuotaSkips++
		return
	}
	s.stats.SpotProbes++
	if req.State != cloud.SpotFulfilled {
		s.budget.refund(bid)
		if req.State.Held() {
			_ = s.prov.CancelSpotRequest(req.ID)
		}
		return
	}
	mon.revInstance = req.Instance
	mon.revBid = bid
	mon.revSince = now
	mon.revCharged = time.Hour // the first hour is paid up front
}

func (s *Service) watchRevocationInstance(mon *marketMon, now time.Time) {
	inst, err := s.prov.DescribeInstance(mon.revInstance)
	if err != nil {
		mon.revInstance = ""
		return
	}
	switch inst.State {
	case cloud.InstanceRunning:
		// Accrue the holding cost hour by hour; if the budget runs dry,
		// the experiment pauses.
		held := now.Sub(mon.revSince)
		for mon.revCharged < held {
			if !s.budget.allow(now, mon.price) {
				s.stats.BudgetDenied++
				_ = s.prov.TerminateInstance(mon.revInstance)
				return
			}
			mon.revCharged += time.Hour
		}
	case cloud.InstanceShuttingDown:
		// Two-minute warning in progress; wait for the termination.
	case cloud.InstanceTerminated:
		if inst.Revoked {
			s.stats.Revocations++
			mon.app.AppendRevocation(store.RevocationRecord{
				At:     inst.End,
				Market: mon.id,
				Bid:    mon.revBid,
				Held:   inst.End.Sub(mon.revSince),
			})
		}
		mon.revInstance = ""
	}
}
