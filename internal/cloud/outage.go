package cloud

import (
	"sort"
	"time"

	"spotlight/internal/market"
)

// Outage is one ground-truth interval during which the pool could not
// grant an on-demand instance of at least Units capacity units. Ground
// truth is never visible to SpotLight — it exists so the evaluation can
// score how much of the truth probing recovered, and so the case studies
// (Chapter 6) can replay real availability.
type Outage struct {
	Pool  market.PoolID `json:"pool"`
	Units int           `json:"units"`
	Start time.Time     `json:"start"`
	End   time.Time     `json:"end"` // zero while ongoing
}

// Duration returns the outage length; ongoing outages are measured up to
// now.
func (o Outage) Duration(now time.Time) time.Duration {
	end := o.End
	if end.IsZero() {
		end = now
	}
	return end.Sub(o.Start)
}

// Contains reports whether instant t falls inside the outage (treating an
// ongoing outage as open-ended).
func (o Outage) Contains(t time.Time) bool {
	if t.Before(o.Start) {
		return false
	}
	return o.End.IsZero() || t.Before(o.End)
}

// outageTracker maintains, per family size, the intervals during which the
// pool's free on-demand capacity fell below that size.
type outageTracker struct {
	pool      market.PoolID
	sizes     []int
	openSince []time.Time // index-aligned with sizes; zero when available
	completed []Outage
}

func newOutageTracker(pool market.PoolID, sizes []int) *outageTracker {
	return &outageTracker{
		pool:      pool,
		sizes:     sizes,
		openSince: make([]time.Time, len(sizes)),
	}
}

// observe folds one tick's free-unit reading into the interval state.
func (t *outageTracker) observe(now time.Time, freeUnits int) {
	for i, size := range t.sizes {
		unavailable := freeUnits < size
		open := !t.openSince[i].IsZero()
		switch {
		case unavailable && !open:
			t.openSince[i] = now
		case !unavailable && open:
			t.completed = append(t.completed, Outage{
				Pool:  t.pool,
				Units: size,
				Start: t.openSince[i],
				End:   now,
			})
			t.openSince[i] = time.Time{}
		}
	}
}

// snapshot returns all completed outages plus ongoing ones closed at now.
func (t *outageTracker) snapshot(now time.Time) []Outage {
	out := make([]Outage, len(t.completed), len(t.completed)+len(t.sizes))
	copy(out, t.completed)
	for i, since := range t.openSince {
		if !since.IsZero() {
			out = append(out, Outage{Pool: t.pool, Units: t.sizes[i], Start: since, End: now})
		}
	}
	return out
}

// TrueOutages returns every ground-truth on-demand outage observed so far,
// with ongoing outages closed at the current instant, sorted by start
// time.
func (s *Sim) TrueOutages() []Outage {
	now := s.clock.Now()
	var out []Outage
	for _, p := range s.pools {
		out = append(out, p.tracker.snapshot(now)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TrueOutagesFor returns the ground-truth outages affecting the given
// market's instance type: intervals when the pool's free capacity was
// below the type's size.
func (s *Sim) TrueOutagesFor(m market.SpotID) ([]Outage, error) {
	idx, ok := s.cat.SpotIndex(m)
	if !ok {
		return nil, apiErrorf(ErrBadParameters, "unknown market %v", m)
	}
	units, err := s.cat.Units(m.Type)
	if err != nil {
		return nil, err
	}
	pool := s.pools[s.dm.MarketPoolIndex(idx)]
	var out []Outage
	for _, o := range pool.tracker.snapshot(s.clock.Now()) {
		if o.Units == units {
			out = append(out, o)
		}
	}
	return out, nil
}

// ODAvailableAt reports whether an on-demand instance of the market's type
// was obtainable at instant t, according to ground truth gathered so far.
func (s *Sim) ODAvailableAt(m market.SpotID, t time.Time) (bool, error) {
	outs, err := s.TrueOutagesFor(m)
	if err != nil {
		return false, err
	}
	for _, o := range outs {
		if o.Contains(t) {
			return false, nil
		}
	}
	return true, nil
}
