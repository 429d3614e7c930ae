package cloud

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"spotlight/internal/demand"
	"spotlight/internal/market"
	"spotlight/internal/simtime"
)

// Config parameterizes the simulator.
type Config struct {
	// Seed drives all stochastic processes (demand and the withholding
	// coin flips). Equal seeds give identical cloud histories.
	Seed uint64
	// Tick is the simulation step. The default is 5 minutes.
	Tick time.Duration
	// Start is the simulated start instant. Zero selects
	// simtime.StudyEpoch.
	Start time.Time
	// APICallsPerTickPerRegion bounds client API calls per region per
	// tick. Default 600.
	APICallsPerTickPerRegion int
	// MinimumCharge is the shortest billable duration per instance
	// (EC2 2015: one hour). §3.4 notes probing gets cheaper under
	// finer-grained billing, e.g. Google Compute Engine's 10 minutes —
	// set this (and BillingIncrement) to model that.
	MinimumCharge time.Duration
	// BillingIncrement is the rounding unit beyond the minimum charge
	// (EC2 2015: one hour; GCE: one minute).
	BillingIncrement time.Duration
	// VolatileMarkets forces specific markets to be high-churn
	// regardless of the seeded draw (see demand.Config.ForceVolatile).
	VolatileMarkets []market.SpotID
	// StrongPools forces specific capacity pools to couple on-demand
	// pressure strongly into the spot tier. The paper's case-study
	// markets were chosen because their pools show exactly this
	// coupling.
	StrongPools []market.PoolID
}

// EC2's quotas and revocation notice.
const (
	// maxOpenSpotRequestsPerRegion is EC2's quota of open spot requests
	// per region.
	maxOpenSpotRequestsPerRegion = 20
	// maxRunningPerType is EC2's quota of running instances of one type
	// per region.
	maxRunningPerType = 20
	// revocationWarning is the advance warning before a spot instance is
	// revoked.
	revocationWarning = 2 * time.Minute
)

func (c *Config) fillDefaults() {
	if c.Tick <= 0 {
		c.Tick = 5 * time.Minute
	}
	if c.Start.IsZero() {
		c.Start = simtime.StudyEpoch
	}
	if c.APICallsPerTickPerRegion <= 0 {
		c.APICallsPerTickPerRegion = 600
	}
	if c.MinimumCharge <= 0 {
		c.MinimumCharge = time.Hour
	}
	if c.BillingIncrement <= 0 {
		c.BillingIncrement = time.Hour
	}
}

// poolRt is the per-pool runtime state.
type poolRt struct {
	id       market.PoolID
	capacity int
	sizes    []int // distinct type sizes in the family, ascending

	// coupling is how strongly on-demand pressure spills into the spot
	// tier (§5.2.1: users switching to spot when on-demand is scarce).
	// A minority of pools couple strongly; they are where the deepest
	// spike-outage correlation lives.
	coupling float64
	strong   bool

	// Per-tick derived state (units).
	odCapUnits      int // capacity minus granted reservations
	odUsedUnits     int // background on-demand usage
	spotSupplyUnits float64

	// Client-held (SpotLight-held) allocations.
	clientODUnits   int
	clientSpotUnits int

	tracker *outageTracker
}

// marketRt is the per-spot-market runtime state.
type marketRt struct {
	id      market.SpotID
	odPrice float64
	params  demand.MarketParams
	poolIdx int

	truePrice float64
	atFloor   bool
	lastQ     float64
	cnaActive bool

	// lagged is the true price one tick ago: the published price lags
	// the clearing price by a tick, modelling EC2's 20-40 s propagation
	// delay (§5.1.2).
	lagged float64

	published   float64
	supplyUnits float64 // this market's share of pool spot supply
	demandUnits float64
}

// regionRt tracks per-region quotas and the region's markets.
type regionRt struct {
	apiCalls      int
	openSpotReqs  int
	runningByType map[market.InstanceType]int
	// markets lists the dense indices of the region's spot markets in
	// catalog order: the walk behind EachRegionPrice.
	markets []int
}

// Sim is the cloud simulator. All methods are safe only from a single
// goroutine: the study driver steps the simulation and the SpotLight
// service it hosts in one loop, mirroring the discrete-time nature of the
// reproduction. (The HTTP daemon serializes access with its own lock.)
type Sim struct {
	cfg   Config
	cat   *market.Catalog
	clock *simtime.SimClock
	dm    *demand.Model
	rng   *rand.Rand

	pools     []*poolRt
	markets   []*marketRt
	marketIdx map[market.SpotID]int
	regions   map[market.Region]*regionRt

	instances    map[InstanceID]*Instance
	liveSpot     map[InstanceID]*Instance
	spotReqs     map[RequestID]*SpotRequest
	heldReqs     map[RequestID]*SpotRequest
	instToReq    map[InstanceID]*SpotRequest
	reservations map[ReservationID]*Reservation

	// pendingShutdown holds on-demand instances in shutting-down,
	// completed on the next tick (Fig 3.1).
	pendingShutdown []*Instance
	// retired schedules terminated instances and closed requests for
	// pruning, bounding memory over month-long studies while keeping
	// recently terminated objects describable.
	retired []retiredEntry

	nextInstance    int64
	nextRequest     int64
	nextReservation int64

	clientCost float64
	tick       int64
}

// New builds a simulator over the full catalog.
func New(cat *market.Catalog, cfg Config) (*Sim, error) {
	cfg.fillDefaults()
	dm, err := demand.NewModel(cat, demand.Config{
		Seed:          cfg.Seed,
		Tick:          cfg.Tick,
		ForceVolatile: cfg.VolatileMarkets,
		HotPools:      cfg.StrongPools,
	})
	if err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}

	s := &Sim{
		cfg:          cfg,
		cat:          cat,
		clock:        simtime.NewSimClock(cfg.Start),
		dm:           dm,
		rng:          rand.New(rand.NewPCG(cfg.Seed, 0x5eed0c10_0d51)),
		marketIdx:    make(map[market.SpotID]int, dm.MarketCount()),
		regions:      make(map[market.Region]*regionRt, len(cat.Regions())),
		instances:    make(map[InstanceID]*Instance),
		liveSpot:     make(map[InstanceID]*Instance),
		spotReqs:     make(map[RequestID]*SpotRequest),
		heldReqs:     make(map[RequestID]*SpotRequest),
		instToReq:    make(map[InstanceID]*SpotRequest),
		reservations: make(map[ReservationID]*Reservation),
	}

	for _, r := range cat.Regions() {
		s.regions[r] = &regionRt{runningByType: make(map[market.InstanceType]int)}
	}

	forcedStrong := make(map[market.PoolID]bool, len(cfg.StrongPools))
	for _, pid := range cfg.StrongPools {
		forcedStrong[pid] = true
	}
	s.pools = make([]*poolRt, dm.PoolCount())
	for i := range s.pools {
		pid := dm.PoolIDAt(i)
		var sizes []int
		for _, t := range cat.FamilyTypes(pid.Family) {
			u, uerr := cat.Units(t)
			if uerr != nil {
				return nil, uerr
			}
			sizes = append(sizes, u)
		}
		strong := s.rng.Float64() < 0.25 || forcedStrong[pid]
		coupling := 0.5
		if strong {
			coupling = 3.0
		}
		s.pools[i] = &poolRt{
			id:       pid,
			capacity: dm.PoolCapacity(i),
			sizes:    sizes,
			coupling: coupling,
			strong:   strong,
			tracker:  newOutageTracker(pid, sizes),
		}
	}

	s.markets = make([]*marketRt, dm.MarketCount())
	for i := range s.markets {
		sid := dm.MarketIDAt(i)
		od, perr := cat.SpotODPrice(sid)
		if perr != nil {
			return nil, perr
		}
		m := &marketRt{
			id:      sid,
			odPrice: od,
			params:  dm.Params(i),
			poolIdx: dm.MarketPoolIndex(i),
		}
		s.markets[i] = m
		s.marketIdx[sid] = i
		reg := s.regions[sid.Region()]
		reg.markets = append(reg.markets, i)
	}

	// Prime prices so the published feed is meaningful from tick zero.
	s.dm.Step(s.clock.Now())
	s.updatePools()
	for i, m := range s.markets {
		s.updateMarketPrice(i, m)
		m.lagged = m.truePrice
		m.published = m.truePrice
	}
	return s, nil
}

// Now returns the current simulated instant.
func (s *Sim) Now() time.Time { return s.clock.Now() }

// AdvanceTo jumps the simulation clock forward to t without stepping the
// market processes — the restart path: a daemon resuming a persisted
// study continues the recorded timeline from where the previous process
// stopped, while the simulated markets (standing in for the real cloud,
// which kept moving regardless) simply continue from their current
// state. Instants at or before the current clock are ignored.
func (s *Sim) AdvanceTo(t time.Time) {
	if now := s.clock.Now(); t.After(now) {
		s.clock.Advance(t.Sub(now))
	}
}

// Catalog returns the topology the simulator runs over.
func (s *Sim) Catalog() *market.Catalog { return s.cat }

// ClientCost returns the cumulative dollars charged to the API client
// (SpotLight) so far.
func (s *Sim) ClientCost() float64 { return s.clientCost }

// Step advances the simulation by one tick: demand moves, instances
// terminate or get revoked, prices re-clear, held spot requests are
// re-evaluated, and ground-truth outage intervals are updated.
func (s *Sim) Step() time.Time {
	now := s.clock.Advance(s.cfg.Tick)
	s.tick++
	s.dm.Step(now)

	s.updatePools()
	s.expireReservations(now)
	s.advanceInstances(now)
	for i, m := range s.markets {
		s.updateMarketPrice(i, m)
		m.publish()
	}
	s.enforceSpotCapacity(now)
	s.reevaluateHeld(now)
	for _, p := range s.pools {
		p.tracker.observe(now, s.odFreeUnits(p))
	}
	for _, r := range s.regions {
		r.apiCalls = 0
	}
	return now
}

// updatePools recomputes pool-level unit accounting from the demand model.
func (s *Sim) updatePools() {
	for i, p := range s.pools {
		pd := s.dm.PoolAt(i)
		capU := float64(p.capacity)
		rgUnits := int(math.Round(pd.ReservedGranted * capU))
		rrun := pd.ReservedRunning

		odCap := p.capacity - rgUnits
		desired := int(math.Round(pd.OnDemandDesired * capU))
		odUsed := desired
		if odUsed > odCap-p.clientODUnits {
			odUsed = odCap - p.clientODUnits
		}
		if odUsed < 0 {
			odUsed = 0
		}

		overload := 0.0
		if odCap > 0 && desired > odCap {
			overload = float64(desired-odCap) / float64(odCap)
		}
		// Strongly coupled pools see reservation holders light up their
		// idle reservations during a shortage, which squeezes the spot
		// tier to nothing and produces the deepest price spikes.
		if p.strong && overload > 0 {
			rrun += (pd.ReservedGranted - rrun) * math.Min(1, overload*2.5)
		}
		rrunUnits := int(math.Round(rrun * capU))
		if rrunUnits > rgUnits {
			rrunUnits = rgUnits
		}

		p.odCapUnits = odCap
		p.odUsedUnits = odUsed
		p.spotSupplyUnits = capU - float64(rrunUnits) - float64(odUsed) -
			float64(p.clientODUnits) - float64(p.clientSpotUnits)
		if p.spotSupplyUnits < 0 {
			p.spotSupplyUnits = 0
		}
	}
}

// demandCoupling returns the multiplier on spot demand exerted by
// on-demand pressure in pool p (§5.2.1: price rises when on-demand users
// spill into the spot market). Mild pressure below saturation adds a
// little; actual overload (rejected on-demand demand falling back to spot
// bids) adds a lot — but only deep shortages on strongly coupled pools
// push the spot price past the on-demand price, which is exactly the
// paper's "loose correlation".
func (s *Sim) demandCoupling(p *poolRt, i int) float64 {
	pd := s.dm.PoolAt(i)
	capU := float64(p.capacity)
	odCap := float64(p.odCapUnits)
	if odCap <= 0 {
		return 1
	}
	util := pd.OnDemandDesired * capU / odCap
	c := 1.0
	if util > 0.85 {
		c += p.coupling * (util - 0.85) * 2
	}
	if util > 1 {
		c += p.coupling * (util - 1) * 6
	}
	if c > 8 {
		c = 8
	}
	return c
}

// updateMarketPrice re-clears one spot market. i is the market's dense
// index (shared with the demand model).
func (s *Sim) updateMarketPrice(i int, m *marketRt) {
	p := s.pools[m.poolIdx]
	ms := s.dm.MarketAt(i)
	couple := s.demandCoupling(p, m.poolIdx)

	m.supplyUnits = m.params.SupplyShare * p.spotSupplyUnits
	m.demandUnits = ms.DemandFrac * float64(p.capacity) * couple

	price, atFloor := clearingPrice(
		m.odPrice, m.supplyUnits, m.demandUnits, ms.PriceScale,
		m.params.SigmaClass, m.params.FloorFrac)
	m.truePrice = price
	m.atFloor = atFloor
	if m.demandUnits > 0 && m.supplyUnits < m.demandUnits {
		m.lastQ = 1 - m.supplyUnits/m.demandUnits
	} else {
		m.lastQ = 0
	}

	// capacity-not-available is a sticky per-market condition whose
	// stationary probability decays with the price level (Fig 5.10):
	// the platform withholds capacity it would sell below cost. A price
	// recovery past half the on-demand price ends the withholding
	// immediately — at that level selling beats idling.
	ratio := m.truePrice / m.odPrice
	pStat := m.params.CNABase * sq(clampF(1.05-ratio, 0, 1))
	if m.cnaActive {
		if ratio > 0.5 || s.rng.Float64() < 0.3 {
			m.cnaActive = false
		}
	} else if pStat > 0 {
		on := 0.3 * pStat / (1 - pStat)
		if s.rng.Float64() < on {
			m.cnaActive = true
		}
	}
}

// publish shifts the true price into the lagged published feed.
func (m *marketRt) publish() {
	m.published = m.lagged
	m.lagged = m.truePrice
}

// retiredEntry schedules a terminated object for pruning.
type retiredEntry struct {
	inst InstanceID
	req  RequestID
	at   time.Time
}

// retireRetention is how long terminated instances and closed requests
// stay describable before pruning.
const retireRetention = 24 * time.Hour

// advanceInstances walks live instances in ID order (for reproducibility):
// completes shutdowns and issues / executes price-based revocations.
func (s *Sim) advanceInstances(now time.Time) {
	ids := make([]InstanceID, 0, len(s.liveSpot))
	for id := range s.liveSpot {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		inst := s.liveSpot[id]
		m := s.markets[inst.marketIdx]
		switch inst.State {
		case InstanceRunning:
			if m.truePrice > inst.Bid {
				// Two-minute warning before the platform takes the
				// instance back (§2.1.3 [1]).
				inst.WarningAt = now
				inst.State = InstanceShuttingDown
				if req := s.instToReq[id]; req != nil && req.State == SpotFulfilled {
					s.transitionSpot(req, SpotMarkedForTermination, now)
				}
			}
		case InstanceShuttingDown:
			if !inst.WarningAt.IsZero() && !now.Before(inst.WarningAt.Add(revocationWarning)) {
				s.finishTermination(inst, now, true)
			}
		}
	}
	for _, inst := range s.pendingShutdown {
		if inst.State == InstanceShuttingDown {
			s.finishTermination(inst, now, false)
		}
	}
	s.pendingShutdown = s.pendingShutdown[:0]
	s.prune(now)
}

// prune drops terminated instances and closed spot requests past the
// retention window. Entries are appended at the simulator's monotone
// clock, so retired is ordered by at and only its prefix can expire.
func (s *Sim) prune(now time.Time) {
	n := 0
	for ; n < len(s.retired); n++ {
		e := s.retired[n]
		if now.Sub(e.at) < retireRetention {
			break
		}
		if e.inst != "" {
			if inst, ok := s.instances[e.inst]; ok && inst.State == InstanceTerminated {
				delete(s.instances, e.inst)
				delete(s.instToReq, e.inst)
			}
		}
		if e.req != "" {
			if req, ok := s.spotReqs[e.req]; ok && req.State.Terminal() {
				delete(s.spotReqs, e.req)
			}
		}
	}
	s.retired = s.retired[n:]
}

// enforceSpotCapacity revokes client spot instances (lowest bids first)
// when the pool's spot tier no longer has room for them.
func (s *Sim) enforceSpotCapacity(now time.Time) {
	for pi, p := range s.pools {
		if p.clientSpotUnits == 0 {
			continue
		}
		// Physical bound: reserved-running + on-demand + client spot
		// must fit; spotSupplyUnits already subtracts client holdings,
		// so a deficit shows up as the pool being oversubscribed.
		deficit := -(float64(p.capacity) - float64(p.odUsedUnits) - float64(p.clientODUnits) -
			float64(p.clientSpotUnits) - s.reservedRunningUnits(pi))
		if deficit <= 0 {
			continue
		}
		var victims []*Instance
		for _, inst := range s.liveSpot {
			if inst.poolIdx == pi && inst.State == InstanceRunning {
				victims = append(victims, inst)
			}
		}
		// Lowest bid loses first.
		for deficit > 0 && len(victims) > 0 {
			lowest := 0
			for i := range victims {
				if victims[i].Bid < victims[lowest].Bid {
					lowest = i
				}
			}
			v := victims[lowest]
			victims = append(victims[:lowest], victims[lowest+1:]...)
			v.WarningAt = now
			v.State = InstanceShuttingDown
			if req := s.instToReq[v.ID]; req != nil && req.State == SpotFulfilled {
				s.transitionSpot(req, SpotMarkedForTermination, now)
			}
			deficit -= float64(v.units)
		}
	}
}

func (s *Sim) reservedRunningUnits(poolIdx int) float64 {
	pd := s.dm.PoolAt(poolIdx)
	return pd.ReservedRunning * float64(s.pools[poolIdx].capacity)
}

// reevaluateHeld re-runs evaluation for every held spot request in ID
// order (Fig 3.2's waiting states feed back into evaluation every platform
// cycle; the order matters when the marginal capacity fits only some).
func (s *Sim) reevaluateHeld(now time.Time) {
	ids := make([]RequestID, 0, len(s.heldReqs))
	for id := range s.heldReqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.evaluateSpot(s.heldReqs[id], now)
	}
}

// odFreeUnits is the number of units an on-demand request could still be
// granted in pool p right now.
func (s *Sim) odFreeUnits(p *poolRt) int {
	free := p.odCapUnits - p.odUsedUnits - p.clientODUnits
	if free < 0 {
		return 0
	}
	return free
}

func sq(x float64) float64 { return x * x }

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
