package cloud

import (
	"fmt"
	"time"

	"spotlight/internal/market"
)

// The reserved tier of Table 2.1: the client pre-purchases capacity for a
// term and the platform guarantees that *starting* a granted reservation
// never fails — even while the on-demand tier is rejecting requests
// (§2.1.2: "EC2 guarantees the demand of reserved instances will never
// exceed their available supply"; footnote: the initial purchase itself
// may be rejected). Mechanically, a granted reservation carves units out
// of the pool ahead of time (Fig 2.2's "reserved granted" slice), which
// is exactly why idle reservations shrink the on-demand bound and feed
// the spot tier.

// ReservationID identifies one granted reservation.
type ReservationID string

// ReservationState is the lifecycle of a reservation's instance.
type ReservationState int

// Reservation states.
const (
	// ReservationIdle: granted but not running; its capacity feeds the
	// spot tier meanwhile (Fig 2.2's lower bound on spot supply).
	ReservationIdle ReservationState = iota + 1
	// ReservationRunning: the reserved instance is up.
	ReservationRunning
	// ReservationExpired: the term ended.
	ReservationExpired
)

// String names the state.
func (s ReservationState) String() string {
	switch s {
	case ReservationIdle:
		return "idle"
	case ReservationRunning:
		return "running"
	case ReservationExpired:
		return "expired"
	default:
		return "unknown"
	}
}

// Reservation is one granted reserved-instance contract.
type Reservation struct {
	ID      ReservationID
	Market  market.SpotID
	State   ReservationState
	Granted time.Time
	Expiry  time.Time
	// UpfrontCost is the fixed charge paid at purchase (§2.1.2: "users
	// pay a fixed cost ... regardless of whether or not the servers are
	// running").
	UpfrontCost float64

	units   int
	poolIdx int
}

// ReservedTermDiscount is the effective hourly discount of a fully
// utilized reservation versus on-demand (§2.1.2: 25-60% less; we use the
// midpoint).
const ReservedTermDiscount = 0.42

// PurchaseReservation requests one reserved instance of the market's type
// for the given term. The purchase itself can be rejected when the pool
// cannot set the capacity aside — the guarantee only begins once granted.
func (s *Sim) PurchaseReservation(m market.SpotID, term time.Duration) (Reservation, error) {
	if term <= 0 {
		return Reservation{}, apiErrorf(ErrBadParameters, "non-positive reservation term %v", term)
	}
	idx, ok := s.cat.SpotIndex(m)
	if !ok {
		return Reservation{}, apiErrorf(ErrBadParameters, "unknown market %v", m)
	}
	if err := s.chargeAPICall(m.Region()); err != nil {
		return Reservation{}, err
	}
	units, err := s.cat.Units(m.Type)
	if err != nil {
		return Reservation{}, apiErrorf(ErrBadParameters, "%v", err)
	}
	poolIdx := s.dm.MarketPoolIndex(idx)
	pool := s.pools[poolIdx]
	// Granting requires free headroom right now: the platform will not
	// over-promise capacity it has already sold (footnote 1 of §2.1.2).
	if s.odFreeUnits(pool) < units {
		return Reservation{}, apiErrorf(ErrInsufficientCapacity,
			"cannot set aside %d units for a reservation in %v", units, pool.id)
	}

	now := s.clock.Now()
	res := &Reservation{
		ID:          s.newReservationID(),
		Market:      m,
		State:       ReservationIdle,
		Granted:     now,
		Expiry:      now.Add(term),
		UpfrontCost: s.markets[idx].odPrice * (1 - ReservedTermDiscount) * term.Hours(),
		units:       units,
		poolIdx:     poolIdx,
	}
	// The granted slice is carved out of the on-demand bound immediately
	// (it behaves like clientODUnits for accounting: capacity promised
	// away), whether or not the instance runs.
	pool.clientODUnits += units
	s.clientCost += res.UpfrontCost
	s.reservations[res.ID] = res
	return *res, nil
}

// StartReserved starts a granted reservation's instance. This is the
// guaranteed operation: it succeeds even while the pool rejects on-demand
// requests, because the capacity was carved out at purchase.
func (s *Sim) StartReserved(id ReservationID) error {
	res, ok := s.reservations[id]
	if !ok {
		return apiErrorf(ErrNotFound, "reservation %s", id)
	}
	if err := s.chargeAPICall(res.Market.Region()); err != nil {
		return err
	}
	switch res.State {
	case ReservationExpired:
		return apiErrorf(ErrBadParameters, "reservation %s expired", id)
	case ReservationRunning:
		return nil // idempotent
	}
	res.State = ReservationRunning
	return nil
}

// expireReservations releases capacity of reservations whose term ended.
func (s *Sim) expireReservations(now time.Time) {
	for _, res := range s.reservations {
		if res.State == ReservationExpired || now.Before(res.Expiry) {
			continue
		}
		res.State = ReservationExpired
		pool := s.pools[res.poolIdx]
		pool.clientODUnits -= res.units
		if pool.clientODUnits < 0 {
			pool.clientODUnits = 0
		}
	}
}

func (s *Sim) newReservationID() ReservationID {
	s.nextReservation++
	return ReservationID(fmt.Sprintf("r-%07d", s.nextReservation))
}
