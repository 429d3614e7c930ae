package core

import (
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/store"
)

// maxBidSpreadAttempts caps the spot requests one intrinsic-price search
// may consume. Chapter 4: "with average 2-3 maximum 6 spot bid requests,
// we can find the intrinsic bid prices".
const maxBidSpreadAttempts = 6

// bidSpreadSearch is Chapter 4's BidSpread function: find the lowest bid
// that actually wins a spot instance right now. Because the published
// price lags the true clearing price by the propagation delay (§5.1.2),
// the winning bid can sit above the published price during volatility
// (Fig 5.2). The search climbs exponentially from the published price
// until a bid wins, then binary-searches the bracket.
func (s *Service) bidSpreadSearch(mon *marketMon, now time.Time) {
	published := mon.price
	if published <= 0 {
		return
	}
	maxBid := mon.od * 10 // the platform's bid cap

	attempts := 0
	lastFail := 0.0
	intrinsic := -1.0
	bid := published

	for attempts < maxBidSpreadAttempts {
		outcome, ok := s.tryBid(mon, now, bid)
		if !ok {
			return // quota pressure or budget exhausted; try again next period
		}
		attempts++
		switch outcome {
		case cloud.SpotFulfilled:
			intrinsic = bid
		case cloud.SpotPriceTooLow, cloud.SpotCapacityOversubscribed:
			lastFail = bid
			bid *= 1.4
			if bid > maxBid {
				bid = maxBid
			}
			if bid == lastFail {
				attempts = maxBidSpreadAttempts // cap reached and still losing
			}
			continue
		default:
			// capacity-not-available or bad-parameters: the intrinsic
			// price is undefined while the market has no capacity.
			return
		}
		break
	}
	if intrinsic < 0 {
		return
	}

	// Binary refinement inside (lastFail, intrinsic] while the attempt
	// budget lasts and the bracket is wider than a few price ticks.
	for attempts < maxBidSpreadAttempts && lastFail > 0 && intrinsic-lastFail > 4*cloud.PriceTick {
		mid := (lastFail + intrinsic) / 2
		outcome, ok := s.tryBid(mon, now, mid)
		if !ok {
			break
		}
		attempts++
		switch outcome {
		case cloud.SpotFulfilled:
			intrinsic = mid
		case cloud.SpotPriceTooLow, cloud.SpotCapacityOversubscribed:
			lastFail = mid
		default:
			attempts = maxBidSpreadAttempts
		}
	}

	s.stats.BidSpreadRuns++
	mon.app.AppendBidSpread(store.BidSpreadRecord{
		At:        now,
		Market:    s.id(mon),
		Published: published,
		Intrinsic: intrinsic,
		Attempts:  attempts,
	})
}

// tryBid issues one spot request at bid and cleans up after itself. It
// returns the request outcome and whether the attempt actually ran.
func (s *Service) tryBid(mon *marketMon, now time.Time, bid float64) (cloud.SpotRequestState, bool) {
	if !s.budget.allow(now, bid) {
		s.stats.BudgetDenied++
		return 0, false
	}
	req, err := s.prov.RequestSpotInstance(s.id(mon), bid)
	if err != nil {
		s.budget.refund(bid)
		s.stats.QuotaSkips++
		return 0, false
	}
	s.stats.SpotProbes++
	if req.State == cloud.SpotFulfilled {
		// A winning attempt pays for its hour; losing attempts are free.
		if terr := s.prov.TerminateInstance(req.Instance); terr != nil {
			s.stats.QuotaSkips++
		}
		return req.State, true
	}
	s.budget.refund(bid)
	if req.State.Held() {
		_ = s.prov.CancelSpotRequest(req.ID)
	}
	return req.State, true
}
