package core

import "time"

// budgetController implements §3.4's cost control: a dollar budget per
// time window. Each probe's expected cost is charged before it is issued;
// once the window's budget is gone, probing pauses until the window
// rolls over. A zero budget means unlimited probing (the paper's own
// prototype configuration).
type budgetController struct {
	budget      float64
	window      time.Duration
	windowStart time.Time
	spent       float64
	totalSpent  float64
}

func newBudgetController(budget float64, window time.Duration, start time.Time) *budgetController {
	return &budgetController{budget: budget, window: window, windowStart: start}
}

// roll advances the budgeting window if needed.
func (b *budgetController) roll(now time.Time) {
	for !now.Before(b.windowStart.Add(b.window)) {
		b.windowStart = b.windowStart.Add(b.window)
		b.spent = 0
	}
}

// allow charges cost against the current window. It reports false (and
// charges nothing) when the window cannot afford the probe.
func (b *budgetController) allow(now time.Time, cost float64) bool {
	b.roll(now)
	if b.budget > 0 && b.spent+cost > b.budget {
		return false
	}
	b.spent += cost
	b.totalSpent += cost
	return true
}

// refund returns cost to the current window (used when a charged probe
// turns out to be free, e.g. a rejected request).
func (b *budgetController) refund(cost float64) {
	b.spent -= cost
	b.totalSpent -= cost
	if b.spent < 0 {
		b.spent = 0
	}
	if b.totalSpent < 0 {
		b.totalSpent = 0
	}
}

// Spent returns the total dollars charged across all windows.
func (b *budgetController) Spent() float64 { return b.totalSpent }
