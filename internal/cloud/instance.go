package cloud

import (
	"time"

	"spotlight/internal/market"
)

// InstanceID identifies one instance, e.g. "i-0000042".
type InstanceID string

// RequestID identifies one spot instance request, e.g. "sir-0000042".
type RequestID string

// InstanceState is the lifecycle state of an instance, following the
// paper's Fig 3.1 state machine for on-demand instances (spot instances
// share the same lifecycle once launched).
type InstanceState int

// Instance lifecycle states (Fig 3.1).
const (
	InstancePending InstanceState = iota + 1
	InstanceRunning
	InstanceShuttingDown
	InstanceTerminated
)

// String renders the state using EC2's names.
func (s InstanceState) String() string {
	switch s {
	case InstancePending:
		return "pending"
	case InstanceRunning:
		return "running"
	case InstanceShuttingDown:
		return "shutting-down"
	case InstanceTerminated:
		return "terminated"
	default:
		return "unknown"
	}
}

// instanceStateNext encodes the legal transitions of Fig 3.1.
var instanceStateNext = map[InstanceState][]InstanceState{
	InstancePending:      {InstanceRunning, InstanceShuttingDown},
	InstanceRunning:      {InstanceShuttingDown},
	InstanceShuttingDown: {InstanceTerminated},
	InstanceTerminated:   nil,
}

// canTransition reports whether moving from to next is legal under Fig 3.1.
func canTransition(from, to InstanceState) bool {
	for _, n := range instanceStateNext[from] {
		if n == to {
			return true
		}
	}
	return false
}

// Instance is one server allocated by the simulator.
type Instance struct {
	ID      InstanceID
	Market  market.SpotID // zone+type+product; also identifies on-demand placement
	Spot    bool
	Bid     float64 // spot only: the caller's maximum price
	State   InstanceState
	Launch  time.Time
	End     time.Time // set once terminated
	Revoked bool      // spot only: terminated by price rather than by the user

	// WarningAt is when the two-minute revocation warning was issued
	// (spot only; zero if never warned).
	WarningAt time.Time

	units       int
	poolIdx     int
	marketIdx   int
	launchPrice float64 // spot: published clearing price at launch, used for billing
	released    bool
}

// LaunchPrice returns the clearing price the instance launched at — the
// rate a spot instance's runtime bills at (zero for on-demand instances,
// which bill at the market's fixed on-demand price). Exposed so portfolio
// managers can do their own cost accounting without waiting for the
// simulator's end-of-life billing.
func (i *Instance) LaunchPrice() float64 { return i.launchPrice }

// SpotRequestState is the status of a spot request, following the paper's
// Fig 3.2 state machine.
type SpotRequestState int

// Spot request states (Fig 3.2).
const (
	SpotPendingEvaluation SpotRequestState = iota + 1
	SpotPendingFulfillment
	SpotFulfilled
	SpotPriceTooLow
	SpotCapacityNotAvailable
	SpotCapacityOversubscribed
	SpotBadParameters
	SpotSystemError
	SpotCancelled
	SpotMarkedForTermination
	SpotInstanceTerminatedByPrice
	SpotInstanceTerminatedByUser
	SpotRequestCanceledInstanceRunning
)

// String renders the status using EC2's hyphenated names.
func (s SpotRequestState) String() string {
	switch s {
	case SpotPendingEvaluation:
		return "pending-evaluation"
	case SpotPendingFulfillment:
		return "pending-fulfillment"
	case SpotFulfilled:
		return "fulfilled"
	case SpotPriceTooLow:
		return "price-too-low"
	case SpotCapacityNotAvailable:
		return "capacity-not-available"
	case SpotCapacityOversubscribed:
		return "capacity-oversubscribed"
	case SpotBadParameters:
		return "bad-parameters"
	case SpotSystemError:
		return "system-error"
	case SpotCancelled:
		return "cancelled"
	case SpotMarkedForTermination:
		return "marked-for-termination"
	case SpotInstanceTerminatedByPrice:
		return "instance-terminated-by-price"
	case SpotInstanceTerminatedByUser:
		return "instance-terminated-by-user"
	case SpotRequestCanceledInstanceRunning:
		return "request-canceled-and-instance-running"
	default:
		return "unknown"
	}
}

// Held reports whether the request is parked in one of Fig 3.2's waiting
// states, from which the platform re-evaluates it every tick.
func (s SpotRequestState) Held() bool {
	switch s {
	case SpotPriceTooLow, SpotCapacityNotAvailable, SpotCapacityOversubscribed, SpotPendingEvaluation, SpotPendingFulfillment:
		return true
	default:
		return false
	}
}

// Terminal reports whether the request will never change state again.
func (s SpotRequestState) Terminal() bool {
	switch s {
	case SpotBadParameters, SpotSystemError, SpotCancelled,
		SpotInstanceTerminatedByPrice, SpotInstanceTerminatedByUser,
		SpotRequestCanceledInstanceRunning:
		return true
	default:
		return false
	}
}

// SpotRequest is one spot instance request tracked by the simulator.
type SpotRequest struct {
	ID       RequestID
	Market   market.SpotID
	Bid      float64
	State    SpotRequestState
	Created  time.Time
	Updated  time.Time
	Instance InstanceID // set once fulfilled

	// History records every state transition with its timestamp, as
	// Chapter 4 describes SpotLight logging "all states and status
	// changes timestamps".
	History []SpotTransition

	units     int
	poolIdx   int
	marketIdx int
}

// SpotTransition is one recorded state change of a spot request.
type SpotTransition struct {
	At    time.Time
	State SpotRequestState
}

// spotRequestNext encodes the legal transitions of Fig 3.2.
var spotRequestNext = map[SpotRequestState][]SpotRequestState{
	SpotPendingEvaluation: {
		SpotPendingFulfillment, SpotPriceTooLow, SpotCapacityNotAvailable,
		SpotCapacityOversubscribed, SpotBadParameters, SpotSystemError,
		SpotCancelled,
	},
	SpotPendingFulfillment: {SpotFulfilled, SpotCancelled},
	SpotPriceTooLow: {
		SpotPendingFulfillment, SpotCancelled, SpotCapacityNotAvailable,
		SpotCapacityOversubscribed,
	},
	SpotCapacityNotAvailable: {
		SpotPendingFulfillment, SpotCancelled, SpotPriceTooLow,
		SpotCapacityOversubscribed,
	},
	SpotCapacityOversubscribed: {
		SpotPendingFulfillment, SpotCancelled, SpotPriceTooLow,
		SpotCapacityNotAvailable,
	},
	SpotFulfilled: {
		SpotMarkedForTermination, SpotInstanceTerminatedByUser,
		SpotRequestCanceledInstanceRunning,
	},
	SpotMarkedForTermination: {SpotInstanceTerminatedByPrice},
}

// canSpotTransition reports whether a request may move from one state to
// another under Fig 3.2.
func canSpotTransition(from, to SpotRequestState) bool {
	for _, n := range spotRequestNext[from] {
		if n == to {
			return true
		}
	}
	return false
}
