package api

import (
	"math"
	"time"
)

// Window selects the time range of a query. Either the absolute form
// (From and To, RFC3339 on the wire) or the relative form (Rel, a Go
// duration string such as "24h" serialized as "window") may be used; the
// relative form resolves to [now-Rel, now] against the service clock at
// evaluation time, so a client can ask for "the past day" without knowing
// what the service considers "now" (under simulated time the two differ).
// When both are present the relative form wins.
//
// Note the timestamps serialize even when unset (encoding/json cannot
// omit a zero time.Time): an absent bound travels as the zero timestamp
// "0001-01-01T00:00:00Z", which Resolve treats as missing.
type Window struct {
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	Rel  string    `json:"window,omitempty"`
}

// Last returns the relative window covering the trailing d.
func Last(d time.Duration) Window { return Window{Rel: d.String()} }

// Between returns the absolute window [from, to].
func Between(from, to time.Time) Window { return Window{From: from, To: to} }

// IsZero reports whether no window was supplied at all.
func (w Window) IsZero() bool { return w.Rel == "" && w.From.IsZero() && w.To.IsZero() }

// Resolve turns the window into concrete UTC [from, to] bounds against
// the service clock now, so an answer that echoes them reads the same in
// whatever zone the request named them. It returns CodeBadWindow when the
// window is missing, unparseable, non-positive, empty, or inverted, and
// when the store cannot represent it: an end outside the instants UnixNano
// represents (1677-09-21 to 2262-04-11), or a span over the longest Duration.
func (w Window) Resolve(now time.Time) (from, to time.Time, err *Error) {
	switch {
	case w.Rel != "":
		d, perr := time.ParseDuration(w.Rel)
		if perr != nil {
			return from, to, Errorf(CodeBadWindow, "bad relative window %q (want a duration like \"24h\")", w.Rel)
		}
		if d <= 0 {
			return from, to, Errorf(CodeBadWindow, "relative window must be positive, got %q", w.Rel)
		}
		from, to = now.Add(-d), now
	case w.From.IsZero() || w.To.IsZero():
		return from, to, Errorf(CodeBadWindow, "missing window: supply from+to (RFC3339) or window (relative duration)")
	case !w.To.After(w.From):
		return from, to, Errorf(CodeBadWindow, "window is empty or inverted: to must be after from")
	default:
		from, to = w.From, w.To
	}
	lo, hi := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	if from.Before(lo) || to.After(hi) || !from.Add(to.Sub(from)).Equal(to) { // Sub saturates
		return time.Time{}, time.Time{}, Errorf(CodeBadWindow, "window must lie within %s and %s and span at most %v",
			lo.Format(time.RFC3339), hi.Format(time.RFC3339), time.Duration(math.MaxInt64))
	}
	return from.UTC(), to.UTC(), nil
}
