// Package advisor is the decision layer over the SpotLight store: given
// workload constraints (capacity floors, price and interruption ceilings,
// a region/product set) it ranks the spot markets the service has price
// history for by a composite score over the store's windowed per-market
// folds — price statistics, spike/crossing rates, revocation history, and
// live outage state — read in one scope scan.
//
// The observational queries answer "what is the market doing"; Advise
// answers "what should I run". It backs both the POST /v2/advise endpoint
// (internal/query) and the fleet manager's placement decisions
// (internal/fleet).
package advisor

import (
	"fmt"
	"math"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/stats"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// DefaultN is the ranking bound when the constraints do not set one.
const DefaultN = 10

// MaxN caps the ranking bound a single request may ask for.
const MaxN = 100

// BadConstraintError rejects a constraint set: Param names the offending
// field in its wire spelling, Msg says why. The query layer maps it to a
// 400 bad_param envelope.
type BadConstraintError struct {
	Param string
	Msg   string
}

func (e *BadConstraintError) Error() string {
	return fmt.Sprintf("advisor: bad constraint %s: %s", e.Param, e.Msg)
}

// Constraints is the validated, catalog-typed form of
// api.AdviseConstraints. Build one with Advisor.Normalize.
type Constraints struct {
	// Regions is the restriction set, empty for all regions, sorted and
	// deduplicated by Normalize.
	Regions []market.Region
	// Products is the restriction set, empty for all platforms, sorted and
	// deduplicated by Normalize.
	Products []market.Product
	// TypePattern is an exact instance type, a glob ("c3.*"), or empty.
	TypePattern string
	// MinVCPU and MinMemoryGB are per-instance capacity floors; zero means
	// no floor.
	MinVCPU     int
	MinMemoryGB float64
	// MaxPrice caps the window's mean spot price; zero means no cap.
	MaxPrice float64
	// MaxInterruption caps the estimated 1-hour revocation probability in
	// [0,1]; zero means no cap.
	MaxInterruption float64
	// N bounds the ranking, in [1, MaxN].
	N int
}

// Advisor ranks spot markets against workload constraints. Safe for
// concurrent use; every Advise ranks afresh. Repeated asks are the
// caller's to keep: the query layer serves them from its table of
// rendered answers, the fleet manager holds one ranking per step.
type Advisor struct {
	db  *store.Store
	cat *market.Catalog

	// rankings counts Advise calls; folded counts the markets whose folds
	// a ranking ran: those whose best case, read from the price floor
	// alone, the selection admitted.
	rankings atomic.Uint64
	folded   atomic.Uint64

	// ods holds each market's on-demand price at its store index
	// (MarketView.Index): 0 until a scan first meets the market, then its
	// catalog price, or -1 when it has none. A store never renumbers a
	// market, so an entry never changes once filled. It is sized to the
	// catalog on the first rank; a store holding markets outside the
	// catalog may index past it, and those markets read the catalog.
	odOnce sync.Once
	ods    []atomic.Uint64
}

// New builds an Advisor over the store and catalog.
func New(db *store.Store, cat *market.Catalog) *Advisor {
	return &Advisor{db: db, cat: cat}
}

// Rankings returns how many rankings Advise has served.
func (a *Advisor) Rankings() uint64 { return a.rankings.Load() }

// MemoStats reports no memo hits and every ranking as a miss.
//
// Deprecated: the advisor keeps no memo; use Rankings.
func (a *Advisor) MemoStats() (hits, misses uint64) { return 0, a.Rankings() }

// MarketsFolded returns how many markets rankings have folded: every
// market a ranking's price-floor bound did not skip.
func (a *Advisor) MarketsFolded() uint64 { return a.folded.Load() }

// onDemand returns the on-demand price of id, the market at store index i,
// from the dense table, reading the catalog on the market's first visit.
func (a *Advisor) onDemand(i uint32, id market.SpotID) float64 {
	if int(i) < len(a.ods) {
		if bits := a.ods[i].Load(); bits != 0 {
			return math.Float64frombits(bits)
		}
	}
	od, err := a.cat.SpotODPrice(id)
	if err != nil || od <= 0 {
		od = -1
	}
	if int(i) < len(a.ods) {
		a.ods[i].Store(math.Float64bits(od))
	}
	return od
}

// Normalize validates wire constraints against the catalog and converts
// them to the typed form. Unknown regions, unknown products, malformed
// type patterns, and out-of-range numeric fields return a
// *BadConstraintError; an empty region list or a single "all" entry means
// every region.
func (a *Advisor) Normalize(c api.AdviseConstraints) (Constraints, error) {
	var out Constraints

	if !(len(c.Regions) == 1 && c.Regions[0] == "all") {
		seen := make(map[market.Region]bool, len(c.Regions))
		for _, r := range c.Regions {
			reg := market.Region(r)
			if !a.cat.HasRegion(reg) {
				return out, &BadConstraintError{Param: "regions", Msg: fmt.Sprintf("unknown region %q", r)}
			}
			if !seen[reg] {
				seen[reg] = true
				out.Regions = append(out.Regions, reg)
			}
		}
		sort.Slice(out.Regions, func(i, j int) bool { return out.Regions[i] < out.Regions[j] })
	}

	if len(c.Products) > 0 {
		seen := make(map[market.Product]bool, len(c.Products))
		for _, p := range c.Products {
			prod := market.Product(p)
			known := false
			for _, have := range market.Products {
				if prod == have {
					known = true
					break
				}
			}
			if !known {
				return out, &BadConstraintError{Param: "products", Msg: fmt.Sprintf("unknown product %q", p)}
			}
			if !seen[prod] {
				seen[prod] = true
				out.Products = append(out.Products, prod)
			}
		}
		sort.Slice(out.Products, func(i, j int) bool { return out.Products[i] < out.Products[j] })
	}

	out.TypePattern = c.InstanceTypes
	if strings.ContainsAny(c.InstanceTypes, "*?[") {
		if _, err := path.Match(c.InstanceTypes, "probe"); err != nil {
			return out, &BadConstraintError{Param: "instanceTypes", Msg: fmt.Sprintf("malformed pattern %q", c.InstanceTypes)}
		}
	}

	if c.MinVCPU < 0 {
		return out, &BadConstraintError{Param: "minVCPU", Msg: "must be >= 0"}
	}
	if c.MinMemoryGB < 0 {
		return out, &BadConstraintError{Param: "minMemoryGB", Msg: "must be >= 0"}
	}
	if c.MaxPricePerHour < 0 {
		return out, &BadConstraintError{Param: "maxPricePerHour", Msg: "must be >= 0"}
	}
	if c.MaxInterruptionRate < 0 || c.MaxInterruptionRate > 1 {
		return out, &BadConstraintError{Param: "maxInterruptionRate", Msg: "must be in [0, 1]"}
	}
	if c.N < 0 || c.N > MaxN {
		return out, &BadConstraintError{Param: "n", Msg: fmt.Sprintf("must be in [0, %d]", MaxN)}
	}
	out.MinVCPU = c.MinVCPU
	out.MinMemoryGB = c.MinMemoryGB
	out.MaxPrice = c.MaxPricePerHour
	out.MaxInterruption = c.MaxInterruptionRate
	out.N = c.N
	if out.N == 0 {
		out.N = DefaultN
	}
	return out, nil
}

// Scoring weights: savings dominate (the reason to run spot at all), then
// observed availability, then price stability. A live outage at the
// window end halves the score — the market may still be the right answer
// later, but not for a placement right now.
const (
	weightSavings   = 0.45
	weightAvail     = 0.30
	weightStability = 0.25
	outagePenalty   = 0.5
)

// scored is one admissible market's evidence and score: what the ranking
// compares, kept free of anything only a winner needs (the string ID, the
// catalog's capacity attributes).
type scored struct {
	id           market.SpotID
	od           float64
	prices       store.PriceWindowStats
	crossings    int
	interruption float64
	spotUnav     float64
	revocations  int
	live         bool
	score        float64
}

// Advise ranks the markets satisfying c by composite score over [from,
// to]. Only markets with at least one recorded price sample inside the
// window are candidates — the advisor recommends from its own evidence,
// never from catalog price sheets alone. An empty result is a valid
// answer. It scans the constraint scope once — each region x product pair
// resolves through the store's scope index, each market's folds run under
// one read lock — into a top-n selection, renders only the winners, and
// returns them in a slice the caller owns.
func (a *Advisor) Advise(c Constraints, from, to time.Time) []api.AdviseCandidate {
	a.rankings.Add(1)
	window := to.Sub(from)
	if window <= 0 {
		return []api.AdviseCandidate{}
	}
	a.odOnce.Do(func() { a.ods = make([]atomic.Uint64, len(a.cat.SpotMarkets())) })

	// Deterministic order: score descending, then fewest expected
	// interruptions, then market ID — identical statistics always rank in
	// market-ID order, so repeated evaluations (and every node of a
	// replicated fleet) agree byte-for-byte.
	top := stats.NewTopN(c.N, func(x, y *scored) bool {
		if x.score != y.score {
			return x.score > y.score
		}
		if x.interruption != y.interruption {
			return x.interruption < y.interruption
		}
		return x.id.Compare(y.id) < 0
	})
	// The query window and its last second (the live outage check), each
	// converted once per request.
	all, last := store.WindowOf(from, to), store.WindowOf(to.Add(-time.Second), to)
	var folded uint64
	visit := func(v store.MarketView) {
		if a.offer(v, c, all, last, float64(window), top) {
			folded++
		}
	}
	regions, products := c.Regions, c.Products
	if len(regions) == 0 {
		regions = []market.Region{""}
	}
	if len(products) == 0 {
		products = []market.Product{""}
	}
	for _, r := range regions {
		for _, p := range products {
			a.db.ScanScope(r, p, visit)
		}
	}
	a.folded.Add(folded)

	rows := top.Sorted()
	out := make([]api.AdviseCandidate, len(rows))
	for i, r := range rows {
		vcpu, _ := a.cat.VCPU(r.id.Type)
		mem, _ := a.cat.MemoryGB(r.id.Type)
		out[i] = api.AdviseCandidate{
			Rank:               i + 1,
			Market:             r.id.String(),
			VCPU:               vcpu,
			MemoryGB:           mem,
			OnDemandPrice:      r.od,
			SpotPriceMin:       r.prices.Min,
			SpotPriceMean:      r.prices.Mean,
			SpotPriceMax:       r.prices.Max,
			PriceSamples:       r.prices.Samples,
			SavingsPcnt:        (1 - r.prices.Mean/r.od) * 100,
			Crossings:          r.crossings,
			InterruptionRate:   r.interruption,
			SpotUnavailability: r.spotUnav,
			Revocations:        r.revocations,
			LiveOutage:         r.live,
			Score:              r.score,
		}
	}
	return out
}

// offer applies the per-market filters (the region and product sets are
// the scan's scope already), scores one market from its shard's folds
// over all, span nanoseconds long, and pushes it to top if it is a
// candidate; an outage overlapping last makes the row live. It reports
// whether the market's folds ran.
//
// Before each fold top is asked whether the market's best case could
// still be kept: its score with the savings term read from the window's
// price floor instead of its mean, plus bestCaseMargin, and with every
// fold not yet run at its best — first no crossings, no spot outage and
// no live outage, which costs no fold at all, then the real ones, before
// the price fold, the costly one. The filters are a conjunction, so their
// order changes no answer, and neither does a skip: a best case never
// ranks below the real row, so a best case top refuses now means a real
// row top would refuse now too, and a refused Push changes nothing. (A
// row whose mean is NaN ranks below no row at all: a full selection
// refuses it whatever the bound.)
func (a *Advisor) offer(v store.MarketView, c Constraints, all, last store.Window, span float64, top *stats.TopN[scored]) (folded bool) {
	id := v.Market()
	if !a.admissible(id.Type, c) {
		return false
	}
	od := a.onDemand(v.Index(), id)
	if od <= 0 {
		return false
	}
	row := scored{id: id, od: od}
	floor, bounded := v.PriceFloor(all)
	if bounded && !top.Admits(row.bestCase(floor)) {
		return false
	}

	row.crossings = v.CrossingStats(all).Crossings
	row.interruption = min(1, float64(row.crossings)*float64(time.Hour)/span)
	if c.MaxInterruption > 0 && row.interruption > c.MaxInterruption {
		return true
	}
	row.spotUnav = min(1, float64(v.OutageOverlap(store.ProbeSpot, all))/span)
	row.live = v.OutageOverlap(store.ProbeSpot, last) > 0 || v.OutageOverlap(store.ProbeOnDemand, last) > 0
	if bounded && !top.Admits(row.bestCase(floor)) {
		return true
	}
	row.prices = v.PriceStats(all)
	if row.prices.Samples == 0 || (c.MaxPrice > 0 && row.prices.Mean > c.MaxPrice) {
		return true
	}
	row.score = row.scoreWith(clamp01(1 - row.prices.Mean/od))
	row.revocations, _ = v.RevocationStats(all)
	top.Push(row)
	return true
}

// bestCase is the row scored with the savings term read from the price
// floor instead of the mean, plus bestCaseMargin.
func (r scored) bestCase(floor float64) scored {
	r.score = r.scoreWith(clamp01(1-floor/r.od)) + bestCaseMargin
	return r
}

// bestCaseMargin is added to a best-case score to cover a mean that
// rounds below the window's lowest price. Every price the fold adds is at
// least the floor, and IEEE addition and division by a positive count are
// monotone, so the mean is at least the floor's own mean over the same
// additions, which lies within (samples+1)·2⁻⁵³ of the floor in relative
// terms. The savings term can then exceed the best case's by about that
// much where it is not clamped (floor ≤ od), and scoreWith, monotone too,
// passes it on times 45 plus a few roundings of a score below 100: under
// 1e-6 for any window of fewer than 10⁸ prices, some three years of one
// price a second.
const bestCaseMargin = 1e-6

// scoreWith is the row's composite score with the savings term sav01 in
// [0, 1], read from the row's other evidence.
func (r *scored) scoreWith(sav01 float64) float64 {
	avail := clamp01(1 - r.spotUnav)
	stability := 1 / (1 + float64(r.crossings))
	score := 100 * (weightSavings*sav01 + weightAvail*avail + weightStability*stability)
	if r.live {
		score *= outagePenalty
	}
	return score
}

// admissible applies the catalog-side filters on the instance type: the
// type pattern and the capacity floors.
func (a *Advisor) admissible(t market.InstanceType, c Constraints) bool {
	if !typeMatches(c.TypePattern, t) {
		return false
	}
	if c.MinVCPU > 0 {
		v, err := a.cat.VCPU(t)
		if err != nil || v < c.MinVCPU {
			return false
		}
	}
	if c.MinMemoryGB > 0 {
		m, err := a.cat.MemoryGB(t)
		if err != nil || m < c.MinMemoryGB {
			return false
		}
	}
	return true
}

// typeMatches applies the instanceTypes filter: empty matches everything,
// a glob matches via path.Match, anything else is an exact type.
func typeMatches(pattern string, t market.InstanceType) bool {
	if pattern == "" {
		return true
	}
	if strings.ContainsAny(pattern, "*?[") {
		ok, err := path.Match(pattern, string(t))
		return err == nil && ok
	}
	return pattern == string(t)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
