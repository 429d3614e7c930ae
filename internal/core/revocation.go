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
	for i := range s.revocations {
		w := &s.revocations[i]
		if w.instance == "" {
			s.acquireRevocationInstance(w, now)
			continue
		}
		s.watchRevocationInstance(w, now)
	}
}

func (s *Service) acquireRevocationInstance(w *watch, now time.Time) {
	bid := s.cfg.RevocationBid * w.mon.od
	if !s.budget.allow(now, bid) {
		s.stats.BudgetDenied++
		return
	}
	req, err := s.prov.RequestSpotInstance(s.id(w.mon), bid)
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
	w.instance = req.Instance
	w.bid = bid
	w.since = now
	w.charged = time.Hour // the first hour is paid up front
}

func (s *Service) watchRevocationInstance(w *watch, now time.Time) {
	inst, err := s.prov.DescribeInstance(w.instance)
	if err != nil {
		w.instance = ""
		return
	}
	switch inst.State {
	case cloud.InstanceRunning:
		// Accrue the holding cost hour by hour; if the budget runs dry,
		// the experiment pauses.
		held := now.Sub(w.since)
		for w.charged < held {
			if !s.budget.allow(now, w.mon.price) {
				s.stats.BudgetDenied++
				_ = s.prov.TerminateInstance(w.instance)
				return
			}
			w.charged += time.Hour
		}
	case cloud.InstanceShuttingDown:
		// Two-minute warning in progress; wait for the termination.
	case cloud.InstanceTerminated:
		if inst.Revoked {
			s.stats.Revocations++
			w.mon.app.AppendRevocation(store.RevocationRecord{
				At:     inst.End,
				Market: s.id(w.mon),
				Bid:    w.bid,
				Held:   inst.End.Sub(w.since),
			})
		}
		w.instance = ""
	}
}
