package demand

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"spotlight/internal/market"
)

// Config parameterizes the demand model.
type Config struct {
	// Seed drives every stochastic process; equal seeds give identical
	// demand histories.
	Seed uint64

	// Tick is the simulation step the model will be advanced by.
	Tick time.Duration

	// ForceVolatile marks specific markets as volatile regardless of the
	// seeded draw. The paper's case studies deliberately pick markets
	// that exhibit frequent price spikes (d2.* in us-east-1e, g2.8xlarge
	// in ap-southeast-2); forcing them keeps those experiments
	// meaningful under any seed.
	ForceVolatile []market.SpotID

	// HotPools marks capacity pools as chronically under-provisioned:
	// higher load, more and longer flash crowds. The Chapter 6 markets
	// show 8-27% on-demand unavailability over the study — behaviour only
	// pools like these produce.
	HotPools []market.PoolID
}

// baseCapacityUnits is the pool capacity before the region's PoolScale
// multiplier.
const baseCapacityUnits = 2560

// PoolDemand is the demand state of one capacity pool at the current tick.
// All quantities are fractions of the pool's capacity.
type PoolDemand struct {
	// ReservedGranted is the share of capacity promised to reservation
	// holders; it upper-bounds on-demand supply (Fig 2.2).
	ReservedGranted float64
	// ReservedRunning is the share of capacity actually used by running
	// reserved instances; it lower-bounds what the spot tier can never
	// touch.
	ReservedRunning float64
	// OnDemandDesired is the share of capacity on-demand customers want
	// right now. Values above 1-ReservedGranted mean the pool is
	// saturated and requests are rejected.
	OnDemandDesired float64
}

// MarketState is the dynamic spot-side demand of one market at the current
// tick.
type MarketState struct {
	// DemandFrac is spot demand in fractions of pool capacity.
	DemandFrac float64
	// PriceScale is a slowly wandering multiplicative jitter on the
	// market's clearing price; it is what lets a c3.2xlarge temporarily
	// out-price a c3.8xlarge (Fig 5.1a).
	PriceScale float64
}

// MarketParams are the static bid-side characteristics of one market.
type MarketParams struct {
	// SupplyShare is the market's share of its pool's spot capacity.
	SupplyShare float64
	// SigmaClass selects the bid-distribution width (0 calm .. 2 volatile).
	SigmaClass int
	// FloorFrac is the price floor as a multiple of the on-demand price.
	FloorFrac float64
	// CNABase is the capacity-not-available probability when the price
	// is pinned at the floor.
	CNABase float64
	// Volatile marks the market as one of the high-churn markets the
	// paper's Revocation probes target.
	Volatile bool
}

type spike struct {
	start time.Time
	end   time.Time
	mag   float64
}

// effectiveMag ramps the flash crowd up and down over 30% of its lifetime
// at each edge. The ramps matter: they create *partial* shortages (only
// the largest instance types rejected) on the shoulders of every event,
// which is what keeps family-related unavailability a probability rather
// than a certainty (§5.2.3).
func (s spike) effectiveMag(now time.Time) float64 {
	total := s.end.Sub(s.start)
	if total <= 0 {
		return s.mag
	}
	pos := float64(now.Sub(s.start)) / float64(total)
	switch {
	case pos <= 0 || pos >= 1:
		return 0
	case pos < 0.3:
		return s.mag * pos / 0.3
	case pos > 0.7:
		return s.mag * (1 - pos) / 0.3
	default:
		return s.mag
	}
}

type regionState struct {
	prof   Profile
	rng    *rand.Rand
	noise  float64
	tzHour float64
	// diurnal is this tick's day-cycle factor at the region's local time,
	// shared by every market of the region.
	diurnal float64
	// famSpikes holds region-wide flash crowds per family; they couple
	// demand across the region's availability zones (§3.2.2).
	famSpikes map[market.Family][]spike
	families  []market.Family
}

type poolState struct {
	id       market.PoolID
	region   *regionState
	rng      *rand.Rand
	capacity int
	hot      bool

	noise        float64
	spikes       []spike
	rg0          float64
	rgPhase      float64
	diurnalPhase float64
	// regJitter scales region-wide flash crowds for this pool, so zones
	// of the same family saturate together but not identically (§5.2.3).
	regJitter float64

	cur PoolDemand
}

type marketState struct {
	id     market.SpotID
	pool   *poolState
	rng    *rand.Rand
	params MarketParams

	demandBase float64
	noise      float64
	scaleNoise float64
	spikes     []spike

	cur MarketState
}

// Model generates demand for every pool and spot market in a catalog.
// It is advanced tick by tick with Step and read with the accessor
// methods. A Model is not safe for concurrent mutation; the simulator
// drives it from a single goroutine.
type Model struct {
	cat     *market.Catalog
	cfg     Config
	tickSec float64
	// rho and innov are the per-tick AR(1) decay and innovation scale
	// (see ar1); both depend only on the tick.
	rho   float64
	innov float64

	regions []*regionState // catalog region order
	pools   []*poolState
	poolIdx map[market.PoolID]int
	markets []*marketState
}

// NewModel builds a demand model over the catalog.
func NewModel(cat *market.Catalog, cfg Config) (*Model, error) {
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("demand: non-positive tick %v", cfg.Tick)
	}
	m := &Model{
		cat:     cat,
		cfg:     cfg,
		tickSec: cfg.Tick.Seconds(),
		poolIdx: make(map[market.PoolID]int, len(cat.Pools())),
	}
	m.rho = math.Exp(-m.tickSec / (3 * 3600))
	m.innov = math.Sqrt(1 - m.rho*m.rho)

	byRegion := make(map[market.Region]*regionState, len(cat.Regions()))
	profiles := DefaultProfiles()
	for _, r := range cat.Regions() {
		// A region without a profile takes the most conservative one.
		prof, ok := profiles[r]
		if !ok {
			prof = profiles["sa-east-1"]
		}
		rs := &regionState{
			prof:      prof,
			rng:       seededRNG(cfg.Seed, "region:"+string(r)),
			tzHour:    regionTZ(r),
			famSpikes: make(map[market.Family][]spike),
			families:  cat.Families(),
		}
		byRegion[r] = rs
		m.regions = append(m.regions, rs)
	}

	hot := make(map[market.PoolID]bool, len(cfg.HotPools))
	for _, pid := range cfg.HotPools {
		hot[pid] = true
	}
	for _, pid := range cat.Pools() {
		rs := byRegion[pid.Zone.RegionOf()]
		rng := seededRNG(cfg.Seed, "pool:"+pid.String())
		ps := &poolState{
			id:           pid,
			region:       rs,
			rng:          rng,
			capacity:     int(baseCapacityUnits * rs.prof.PoolScale),
			hot:          hot[pid],
			rg0:          0.30 + 0.18*rng.Float64(),
			rgPhase:      rng.Float64() * 2 * math.Pi,
			diurnalPhase: (rng.Float64() - 0.5) * 1.5, // hours of local jitter
			regJitter:    0.4 + rng.Float64(),
		}
		m.poolIdx[pid] = len(m.pools)
		m.pools = append(m.pools, ps)
	}

	forced := make(map[market.SpotID]bool, len(cfg.ForceVolatile))
	for _, id := range cfg.ForceVolatile {
		forced[id] = true
	}
	for _, sid := range cat.SpotMarkets() {
		ps := m.pools[m.poolIdx[sid.Pool()]]
		rng := seededRNG(cfg.Seed, "market:"+sid.String())
		share := m.supplyShare(sid)
		volatile := rng.Float64() < 0.15 || forced[sid]
		sigmaClass := rng.IntN(2) // 0 or 1
		if volatile {
			sigmaClass = 2
		}
		prof := ps.region.prof
		ms := &marketState{
			id:   sid,
			pool: ps,
			rng:  rng,
			params: MarketParams{
				SupplyShare: share,
				SigmaClass:  sigmaClass,
				FloorFrac:   0.06 + 0.08*rng.Float64(),
				CNABase:     prof.SpotCNABase * (0.7 + 0.6*rng.Float64()),
				Volatile:    volatile,
			},
			demandBase: 0.35 * share,
			scaleNoise: 0,
		}
		m.markets = append(m.markets, ms)
	}
	return m, nil
}

// supplyShare computes the static share of the pool's spot capacity
// attributed to market sid: smaller types and the Linux platform carry more
// of the demand.
func (m *Model) supplyShare(sid market.SpotID) float64 {
	typeWeight := func(t market.InstanceType) float64 {
		u, err := m.cat.Units(t)
		if err != nil {
			return 1
		}
		return 1 / math.Sqrt(float64(u))
	}
	prodWeight := map[market.Product]float64{
		market.ProductLinux:   0.70,
		market.ProductWindows: 0.20,
		market.ProductSUSE:    0.10,
	}
	total := 0.0
	for _, t := range m.cat.FamilyTypes(sid.Type.Family()) {
		for _, p := range market.Products {
			total += typeWeight(t) * prodWeight[p]
		}
	}
	return typeWeight(sid.Type) * prodWeight[sid.Product] / total
}

// Step advances every demand process to instant now. Callers must advance
// monotonically in increments of the configured tick.
func (m *Model) Step(now time.Time) {
	for _, rs := range m.regions {
		m.stepRegion(rs, now)
	}
	for _, ps := range m.pools {
		m.stepPool(ps, now)
	}
	for _, ms := range m.markets {
		m.stepMarket(ms, now)
	}
}

func (m *Model) stepRegion(rs *regionState, now time.Time) {
	rs.noise = m.ar1(rs.noise, rs.rng, rs.prof.Volatility)
	rs.diurnal = diurnal(now, rs.tzHour)

	// Region-wide flash crowds arrive per family; they make the same
	// family saturate in several availability zones at once (§5.2.3).
	// Regional spikes are smaller-bodied than local ones so that the
	// largest spikes are AZ-local, which is what makes the cross-AZ
	// coupling of Fig 5.8 fall as spike size grows.
	ratePerTick := rs.prof.SpikeRatePerDay * rs.prof.RegionalShare * m.tickSec / 86400
	for _, f := range rs.families {
		rs.famSpikes[f] = pruneSpikes(rs.famSpikes[f], now)
		if rs.rng.Float64() < ratePerTick {
			mag := math.Exp(math.Log(0.05) + 0.6*normFloat(rs.rng))
			dur := spikeDuration(rs.rng)
			rs.famSpikes[f] = append(rs.famSpikes[f], spike{start: now, end: now.Add(dur), mag: mag})
		}
	}
}

func (m *Model) stepPool(ps *poolState, now time.Time) {
	prof := ps.region.prof
	ps.noise = m.ar1(ps.noise, ps.rng, prof.Volatility)
	ps.spikes = pruneSpikes(ps.spikes, now)

	// AZ-local flash crowds: heavier-tailed magnitudes than regional ones.
	localRate := prof.SpikeRatePerDay * (1 - prof.RegionalShare) * m.tickSec / 86400
	if ps.hot {
		localRate *= 6
	}
	if ps.rng.Float64() < localRate {
		mag := math.Exp(math.Log(0.07) + 0.9*normFloat(ps.rng))
		dur := spikeDuration(ps.rng)
		if ps.hot {
			mag *= 2
			dur *= 4
		}
		ps.spikes = append(ps.spikes, spike{start: now, end: now.Add(dur), mag: mag})
	}

	d := diurnal(now, ps.region.tzHour+ps.diurnalPhase)
	w := weekly(now)

	// Reservations drift on a monthly cycle; running reserved instances
	// follow the day.
	tDays := float64(now.Unix()) / 86400
	rg := ps.rg0 + 0.04*math.Sin(2*math.Pi*tDays/30+ps.rgPhase)
	rrun := rg * (0.55 + 0.20*d + 0.03*ps.noise)
	rrun = clamp(rrun, 0.2*rg, rg)

	headroom := 1 - rg

	spikeBoost := 0.0
	for _, s := range ps.spikes {
		spikeBoost += s.effectiveMag(now)
	}
	for _, s := range ps.region.famSpikes[ps.id.Family] {
		spikeBoost += s.effectiveMag(now) * ps.regJitter
	}

	// Hot pools ignore the region's provisioning: they are chronically
	// tight no matter how healthy the region is (the d2/g2 pools of the
	// case studies sit in otherwise well-provisioned us-east-1).
	prov := prof.Provision
	if ps.hot {
		prov = 0.85
	}
	util := (0.70 + 0.16*d) * w
	util *= 1 + prof.RegionalShare*ps.region.noise + (1-prof.RegionalShare)*ps.noise
	util = util/prov + spikeBoost

	ps.cur = PoolDemand{
		ReservedGranted: rg,
		ReservedRunning: rrun,
		OnDemandDesired: clamp(headroom*util, 0, 1.2),
	}
}

func (m *Model) stepMarket(ms *marketState, now time.Time) {
	prof := ms.pool.region.prof
	ms.noise = m.ar1(ms.noise, ms.rng, 0.18)
	ms.scaleNoise = m.ar1(ms.scaleNoise, ms.rng, 0.55)
	ms.spikes = pruneSpikes(ms.spikes, now)

	rate := prof.MarketSpikeRatePerDay
	if ms.params.Volatile {
		rate *= 3
	}
	if ms.rng.Float64() < rate*m.tickSec/86400 {
		mag := math.Exp(math.Log(2.0) + 1.3*normFloat(ms.rng))
		ms.spikes = append(ms.spikes, spike{start: now, end: now.Add(spikeDuration(ms.rng)), mag: mag})
	}

	d := ms.pool.region.diurnal
	spikeMult := 1.0
	for _, s := range ms.spikes {
		spikeMult += s.effectiveMag(now)
	}

	ms.cur = MarketState{
		DemandFrac: ms.demandBase * (1 + 0.25*d) * math.Exp(ms.noise) * spikeMult,
		PriceScale: math.Exp(0.18 * ms.scaleNoise),
	}
}

// ar1 advances a zero-mean AR(1) process with ~3 h correlation time and
// stationary standard deviation sigma: x' = rho*x + sigma*sqrt(1-rho²)*N,
// with rho = exp(-tick/3h) and the square root precomputed as m.innov.
func (m *Model) ar1(x float64, rng *rand.Rand, sigma float64) float64 {
	return m.rho*x + sigma*m.innov*normFloat(rng)
}

// Pool accessors ------------------------------------------------------------

// PoolCount returns the number of capacity pools.
func (m *Model) PoolCount() int { return len(m.pools) }

// PoolIDAt returns the pool ID at dense index i.
func (m *Model) PoolIDAt(i int) market.PoolID { return m.pools[i].id }

// PoolAt returns the current demand of the pool at dense index i.
func (m *Model) PoolAt(i int) PoolDemand { return m.pools[i].cur }

// PoolCapacity returns the physical capacity (in units) of the pool at
// dense index i.
func (m *Model) PoolCapacity(i int) int { return m.pools[i].capacity }

// Market accessors ----------------------------------------------------------

// MarketCount returns the number of spot markets.
func (m *Model) MarketCount() int { return len(m.markets) }

// MarketIDAt returns the spot market ID at dense index i.
func (m *Model) MarketIDAt(i int) market.SpotID { return m.markets[i].id }

// MarketAt returns the current dynamic demand of the market at dense
// index i.
func (m *Model) MarketAt(i int) MarketState { return m.markets[i].cur }

// MarketPoolIndex returns the dense pool index backing market i.
func (m *Model) MarketPoolIndex(i int) int { return m.poolIdx[m.markets[i].pool.id] }

// Params returns the static bid-side parameters of the market at dense
// index i.
func (m *Model) Params(i int) MarketParams { return m.markets[i].params }

// Helpers --------------------------------------------------------------------

// diurnal returns a smooth [-1, 1] day-cycle factor peaking at 14:00 local
// time for the given UTC offset in hours.
func diurnal(now time.Time, tzHour float64) float64 {
	h := float64(now.Hour()) + float64(now.Minute())/60 + tzHour
	return math.Sin(2 * math.Pi * (h - 8) / 24)
}

// weekly returns the weekday load factor: full load on weekdays, reduced on
// weekends.
func weekly(now time.Time) float64 {
	switch now.Weekday() {
	case time.Saturday, time.Sunday:
		return 0.86
	default:
		return 1.0
	}
}

// spikeDuration samples a flash-crowd duration: mostly minutes, with a
// heavy multi-hour tail, reproducing the outage-duration CDF of Fig 5.9
// (~83% of outages under an hour, ~5% over ten hours).
func spikeDuration(rng *rand.Rand) time.Duration {
	var minutes float64
	if rng.Float64() < 0.82 {
		minutes = math.Exp(math.Log(12) + 1.0*normFloat(rng))
	} else {
		minutes = math.Exp(math.Log(170) + 1.5*normFloat(rng))
	}
	if minutes < 2 {
		minutes = 2
	}
	return time.Duration(minutes * float64(time.Minute))
}

func pruneSpikes(ss []spike, now time.Time) []spike {
	out := ss[:0]
	for _, s := range ss {
		if s.end.After(now) {
			out = append(out, s)
		}
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// normFloat draws a standard normal variate.
func normFloat(rng *rand.Rand) float64 { return rng.NormFloat64() }

// seededRNG derives an independent, reproducible PCG stream for a named
// component from the study seed.
func seededRNG(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// regionTZ returns the rough UTC offset of a region, used to phase its
// diurnal cycle.
func regionTZ(r market.Region) float64 {
	switch r {
	case "us-east-1":
		return -5
	case "us-west-1", "us-west-2":
		return -8
	case "eu-west-1":
		return 0
	case "eu-central-1":
		return 1
	case "ap-northeast-1":
		return 9
	case "ap-southeast-1":
		return 8
	case "ap-southeast-2":
		return 10
	case "sa-east-1":
		return -3
	default:
		return 0
	}
}
