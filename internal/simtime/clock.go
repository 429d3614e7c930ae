// Package simtime provides the virtual and real clocks that drive the
// SpotLight service and the cloud simulator. All components take a Clock so
// the same code runs in real time (the spotlightd daemon) and in simulated
// time (studies, tests, and benchmarks, where 90 days pass in seconds).
package simtime

import (
	"sync"
	"time"
)

// Clock abstracts the progression of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
}

// RealClock is a Clock backed by the system wall clock.
type RealClock struct{}

var _ Clock = RealClock{}

// Now returns the current wall-clock time.
func (RealClock) Now() time.Time { return time.Now() }

// SimClock is a manually advanced virtual clock used by the discrete-time
// simulation. The zero value is not usable; construct with NewSimClock.
type SimClock struct {
	mu  sync.RWMutex
	now time.Time
}

var _ Clock = (*SimClock)(nil)

// NewSimClock returns a SimClock positioned at start.
func NewSimClock(start time.Time) *SimClock {
	return &SimClock{now: start}
}

// Now returns the current simulated instant.
func (c *SimClock) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new instant.
// Advancing by a negative duration is a programming error and panics,
// because a time-travelling clock would corrupt every append-ordered log
// in the system.
func (c *SimClock) Advance(d time.Duration) time.Time {
	if d < 0 {
		panic("simtime: cannot advance clock backwards")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// StudyEpoch is the canonical start instant for simulated studies. The
// concrete date is arbitrary but fixed so that seeded runs are fully
// reproducible; it matches the paper's measurement period (fall 2015).
var StudyEpoch = time.Date(2015, time.September, 1, 0, 0, 0, 0, time.UTC)
