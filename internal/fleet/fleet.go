// Package fleet closes SpotLight's observe→decide→act loop: a simulated
// fleet manager that holds a portfolio of instances over internal/cloud,
// steers placement with the advisor's rankings, and reacts to the
// store's live change feed — the same events /v2/watch streams — with
// replacement policies: spot→spot migration away from spiking or failing
// markets, on-demand fallback when no spot placement lands, and periodic
// repatriation of fallback capacity back onto spot.
//
// Bidding is pluggable (policy.go): the paper's threshold policy bids
// the on-demand price; the feedback-control policy adapts the bid to an
// availability setpoint. internal/experiment runs the two head-to-head.
package fleet

import (
	"fmt"
	"time"

	"spotlight/internal/advisor"
	"spotlight/internal/cloud"
	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// Config parameterizes a Manager.
type Config struct {
	// Sim is the cloud the fleet runs on.
	Sim *cloud.Sim
	// DB is the SpotLight store the advisor ranks from and whose change
	// feed steers replacement.
	DB *store.Store
	// Cat is the market catalog.
	Cat *market.Catalog
	// Constraints is the workload description placements must satisfy.
	Constraints api.AdviseConstraints
	// Target is the desired instance count.
	Target int
	// Policy decides bids; nil means the threshold policy.
	Policy BidPolicy
}

// The manager's steering constants.
const (
	// window is the advisor's history window.
	window = 6 * time.Hour
	// avoidFor is how long an event-flagged market is excluded from
	// placement.
	avoidFor = time.Hour
	// spikeRatio is the spot/on-demand multiple at or above which a spike
	// event triggers avoidance and migration: any crossing of the
	// on-demand price.
	spikeRatio = 1.0
	// repatriateEvery is the tick interval between attempts to move
	// on-demand fallback capacity back to spot: one hour at 5-minute
	// ticks.
	repatriateEvery = 12
)

// Metrics is the manager's lifetime accounting.
type Metrics struct {
	// Policy is the bid policy's name.
	Policy string
	// Ticks and Target describe the measurement.
	Ticks  int
	Target int
	// Cost is the total dollars billed to the fleet's instances, under
	// the platform's charging model (one-hour minimum and increments; a
	// revoked instance's interrupted hour is free).
	Cost float64
	// availSum accumulates running/target per tick; AvailabilityPcnt
	// reports it.
	availSum float64
	// SpotLaunches and Fallbacks count successful spot and on-demand
	// placements; Migrations counts event-steered spot→spot moves;
	// Repatriations counts on-demand→spot moves back.
	SpotLaunches  int
	Fallbacks     int
	Migrations    int
	Repatriations int
	// Revocations counts the fleet's own instances terminated by price.
	Revocations int
	// Events counts feed events consumed; Lagged counts feed overflows
	// (each forces a resubscribe).
	Events int
	Lagged int
}

// AvailabilityPcnt is the mean fraction of the target held, in percent.
func (m Metrics) AvailabilityPcnt() float64 {
	if m.Ticks == 0 {
		return 0
	}
	return 100 * m.availSum / float64(m.Ticks)
}

// slot is one unit of the portfolio: empty (id "") or holding one
// instance.
type slot struct {
	id       cloud.InstanceID
	mkt      market.SpotID
	spot     bool
	rate     float64 // $/hour the instance bills at
	launched time.Time
}

// Manager holds the portfolio. It is single-goroutine: call Step once
// per simulation tick and Close when done. The change feed it subscribes
// to is written by the monitoring service on the same tick cadence, so
// draining it inside Step observes every event exactly once.
type Manager struct {
	cfg   Config
	adv   *advisor.Advisor
	cons  advisor.Constraints
	sub   *store.Subscription
	slots []slot

	// avoid maps event-flagged markets to the instant the flag expires;
	// outage tracks feed-reported open spot outages.
	avoid  map[market.SpotID]time.Time
	outage map[market.SpotID]bool

	// ranked is the current Step's ranking: nil until candidates first
	// asks the advisor for it.
	ranked []api.AdviseCandidate

	tick int
	m    Metrics
}

// New validates the config and builds a manager with an armed feed
// subscription. The constraints are normalized once, with the candidate
// bound raised to the advisor's maximum so placement has alternatives to
// walk when the top market is avoided.
func New(cfg Config) (*Manager, error) {
	if cfg.Sim == nil || cfg.DB == nil || cfg.Cat == nil {
		return nil, fmt.Errorf("fleet: Sim, DB, and Cat are required")
	}
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("fleet: Target must be positive, got %d", cfg.Target)
	}
	if cfg.Policy == nil {
		cfg.Policy = &Threshold{}
	}
	adv := advisor.New(cfg.DB, cfg.Cat)
	wire := cfg.Constraints
	wire.N = advisor.MaxN
	cons, err := adv.Normalize(wire)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	m := &Manager{
		cfg:    cfg,
		adv:    adv,
		cons:   cons,
		slots:  make([]slot, cfg.Target),
		avoid:  make(map[market.SpotID]time.Time),
		outage: make(map[market.SpotID]bool),
	}
	m.m.Policy = cfg.Policy.Name()
	m.m.Target = cfg.Target
	m.subscribe()
	return m, nil
}

// subscribe (re)opens the event subscription. A single-region constraint
// narrows the filter at the feed, not in the drain loop.
func (m *Manager) subscribe() {
	var filter store.EventFilter
	if len(m.cons.Regions) == 1 {
		filter.Region = m.cons.Regions[0]
	}
	filter.Kinds = []store.EventKind{
		store.EventSpike, store.EventRevocation,
		store.EventOutageOpen, store.EventOutageClose,
	}
	m.sub = m.cfg.DB.Feed().Subscribe(store.SubscribeOptions{Filter: filter})
}

// Step runs one management cycle at the simulation clock's now: drain
// the change feed into the avoid/outage sets, account for instances the
// platform took, migrate off flagged markets, fill empty slots, and
// (periodically) repatriate on-demand fallback capacity to spot. Call it
// after the monitoring service's OnTick so the tick's events are visible.
//
// Nothing a Step does appends to the store, so every placement within it
// reads one ranking, asked of the advisor at most once per Step; an
// append racing the Step (a live monitoring service) is ranked by the
// next one.
func (m *Manager) Step(now time.Time) {
	m.tick++
	m.ranked = nil
	revokedBefore := m.m.Revocations
	m.drainEvents(now)
	m.expireAvoids(now)
	m.reap(now)
	m.migrate(now)
	m.fill(now)
	if m.tick%repatriateEvery == 0 {
		m.repatriate(now)
	}

	running := 0
	for _, s := range m.slots {
		if s.id != "" {
			running++
		}
	}
	m.m.Ticks++
	m.m.availSum += float64(running) / float64(m.cfg.Target)
	m.cfg.Policy.Observe(Observation{
		Running:     running,
		Target:      m.cfg.Target,
		Revocations: m.m.Revocations - revokedBefore,
	})
}

// drainEvents reads the subscription until it is caught up. A lagged
// marker (or a closed subscription) ends it; the manager resubscribes and
// carries on — the avoid set degrades gracefully as flags expire anyway.
func (m *Manager) drainEvents(now time.Time) {
	buf := make([]store.Event, 0, 64)
	for {
		evs, live := m.sub.Next(buf)
		for _, ev := range evs {
			if ev.Kind == store.EventLagged {
				m.m.Lagged++
				break
			}
			m.m.Events++
			m.handleEvent(ev, now)
		}
		if !live {
			m.sub.Close()
			m.subscribe()
			return
		}
		if len(evs) == 0 {
			return
		}
	}
}

// handleEvent folds one feed event into the placement state.
func (m *Manager) handleEvent(ev store.Event, now time.Time) {
	switch ev.Kind {
	case store.EventSpike:
		if ev.Spike != nil && ev.Spike.Ratio >= spikeRatio {
			m.avoid[ev.Market] = now.Add(avoidFor)
		}
	case store.EventRevocation:
		// Someone's on-demand-priced bid just lost here; ours would too.
		m.avoid[ev.Market] = now.Add(avoidFor)
	case store.EventOutageOpen:
		if ev.Outage != nil && ev.Outage.Kind == store.ProbeSpot {
			m.outage[ev.Market] = true
		}
	case store.EventOutageClose:
		if ev.Outage != nil && ev.Outage.Kind == store.ProbeSpot {
			delete(m.outage, ev.Market)
		}
	}
}

func (m *Manager) expireAvoids(now time.Time) {
	for id, until := range m.avoid {
		if !until.After(now) {
			delete(m.avoid, id)
		}
	}
}

// flagged reports whether placement should stay away from id right now.
func (m *Manager) flagged(id market.SpotID) bool {
	if m.outage[id] {
		return true
	}
	_, bad := m.avoid[id]
	return bad
}

// reap closes slots whose instances the platform terminated, billing
// them: a revocation's interrupted hour is free, everything else pays
// the one-hour minimum rounded up to whole hours — the simulator's own
// charging model, mirrored per instance.
func (m *Manager) reap(now time.Time) {
	for i := range m.slots {
		s := &m.slots[i]
		if s.id == "" {
			continue
		}
		inst, err := m.cfg.Sim.DescribeInstance(s.id)
		if err != nil {
			// Pruned past the simulator's retention: long terminated.
			m.m.Cost += billedHours(now.Sub(s.launched), false) * s.rate
			*s = slot{}
			continue
		}
		if inst.State == cloud.InstanceRunning {
			continue
		}
		// A live revocation warning means the platform is taking the
		// instance (user terminations clear WarningAt); Revoked is only
		// set once the two-minute grace elapses, which can straddle a
		// tick boundary.
		revoked := inst.Revoked || (inst.Spot && !inst.WarningAt.IsZero())
		end := inst.End
		if end.IsZero() {
			end = now
		}
		if revoked {
			m.m.Revocations++
			// The revoked market just proved hostile to our bid level.
			m.avoid[s.mkt] = now.Add(avoidFor)
		}
		m.m.Cost += billedHours(end.Sub(s.launched), revoked) * s.rate
		*s = slot{}
	}
}

// migrate moves running spot instances off flagged markets: acquire the
// replacement first, and only then terminate the old instance, so a
// failed placement degrades to "stay put" instead of "go dark".
func (m *Manager) migrate(now time.Time) {
	for i := range m.slots {
		s := &m.slots[i]
		if s.id == "" || !s.spot || !m.flagged(s.mkt) {
			continue
		}
		old := *s
		repl, ok := m.acquire(now, old.mkt)
		if !ok {
			continue
		}
		m.release(old, now)
		m.slots[i] = repl
		m.m.Migrations++
	}
}

// fill places instances into empty slots: spot via the advisor's ranking
// and the bid policy, falling back to on-demand when no spot placement
// lands.
func (m *Manager) fill(now time.Time) {
	for i := range m.slots {
		if m.slots[i].id != "" {
			continue
		}
		if s, ok := m.acquire(now, market.SpotID{}); ok {
			m.slots[i] = s
			continue
		}
		if s, ok := m.acquireOnDemand(now); ok {
			m.slots[i] = s
			m.m.Fallbacks++
		}
	}
}

// repatriate retries spot for slots running on-demand fallback capacity,
// terminating the fallback only once the spot replacement is running.
func (m *Manager) repatriate(now time.Time) {
	for i := range m.slots {
		s := &m.slots[i]
		if s.id == "" || s.spot {
			continue
		}
		old := *s
		repl, ok := m.acquire(now, market.SpotID{})
		if !ok {
			return // no spot capacity anywhere; don't burn API budget per slot
		}
		m.release(old, now)
		m.slots[i] = repl
		m.m.Repatriations++
	}
}

// spotAttempts bounds how many ranked candidates one placement walks.
const spotAttempts = 3

// acquire tries to land one spot instance on the advisor's best
// non-flagged candidates. exclude additionally skips one market (the one
// being migrated away from).
func (m *Manager) acquire(now time.Time, exclude market.SpotID) (slot, bool) {
	tried := 0
	for _, cand := range m.candidates(now) {
		id, err := market.ParseSpotID(cand.Market)
		if err != nil || id == exclude || m.flagged(id) || cand.LiveOutage {
			continue
		}
		if tried++; tried > spotAttempts {
			break
		}
		spotPx, _ := m.cfg.Sim.SpotPrice(id)
		bid := clampBid(m.cfg.Policy.Bid(cand.OnDemandPrice, spotPx), cand.OnDemandPrice)
		req, err := m.cfg.Sim.RequestSpotInstance(id, bid)
		if err != nil {
			return slot{}, false // API budget or quota: stop placing this tick
		}
		if req.State != cloud.SpotFulfilled {
			_ = m.cfg.Sim.CancelSpotRequest(req.ID)
			continue
		}
		inst, err := m.cfg.Sim.DescribeInstance(req.Instance)
		if err != nil {
			continue
		}
		m.m.SpotLaunches++
		return slot{
			id:       inst.ID,
			mkt:      id,
			spot:     true,
			rate:     inst.LaunchPrice(),
			launched: inst.Launch,
		}, true
	}
	return slot{}, false
}

// acquireOnDemand lands the on-demand fallback on the best-ranked
// market's tier (capacity failures walk down the ranking, like spot).
func (m *Manager) acquireOnDemand(now time.Time) (slot, bool) {
	tried := 0
	for _, cand := range m.candidates(now) {
		id, err := market.ParseSpotID(cand.Market)
		if err != nil {
			continue
		}
		if tried++; tried > spotAttempts {
			break
		}
		inst, err := m.cfg.Sim.RunInstance(id)
		if err != nil {
			continue // od capacity can be out too; try the next market
		}
		return slot{
			id:       inst.ID,
			mkt:      id,
			spot:     false,
			rate:     cand.OnDemandPrice,
			launched: inst.Launch,
		}, true
	}
	return slot{}, false
}

// candidates returns the Step's ranked markets over the trailing window,
// ranking on the Step's first call.
func (m *Manager) candidates(now time.Time) []api.AdviseCandidate {
	if m.ranked == nil {
		m.ranked = m.adv.Advise(m.cons, now.Add(-window), now)
	}
	return m.ranked
}

// release terminates a live instance and bills its runtime (user
// termination: one-hour minimum, whole-hour rounding).
func (m *Manager) release(s slot, now time.Time) {
	_ = m.cfg.Sim.TerminateInstance(s.id)
	m.m.Cost += billedHours(now.Sub(s.launched), false) * s.rate
}

// Close finalizes the manager: terminate and bill the remaining
// portfolio at now, close the feed subscription, and return the final
// metrics.
func (m *Manager) Close(now time.Time) Metrics {
	for i := range m.slots {
		if m.slots[i].id != "" {
			m.release(m.slots[i], now)
			m.slots[i] = slot{}
		}
	}
	m.sub.Close()
	return m.m
}

// Metrics returns a snapshot of the accounting so far.
func (m *Manager) Metrics() Metrics { return m.m }

// clampBid keeps a policy's bid inside the platform's acceptance range
// (0, 10x on-demand]; the simulator parks anything outside it in
// bad-parameters.
func clampBid(bid, od float64) float64 {
	if hi := 10 * od; bid > hi {
		return hi
	}
	if bid <= 0 {
		return 0.01 * od
	}
	return bid
}

// billedHours mirrors the simulator's default charging model (§2.2): a
// one-hour minimum rounded up to whole hours, with a platform
// revocation's interrupted hour free.
func billedHours(dur time.Duration, revoked bool) float64 {
	const inc = time.Hour
	if dur < 0 {
		dur = 0
	}
	if revoked {
		return (dur / inc * inc).Hours()
	}
	if dur < inc {
		dur = inc
	}
	return (((dur + inc - 1) / inc) * inc).Hours()
}
