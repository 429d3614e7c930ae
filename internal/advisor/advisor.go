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
// concurrent use; results are memoized per (constraints, window) keyed by
// the store generation of the constraint scope, so a cached answer stays
// valid exactly until an append lands inside the regions it read.
type Advisor struct {
	db  *store.Store
	cat *market.Catalog

	mu      sync.Mutex
	entries map[string]advEntry

	// memoHits/memoMisses count Advise calls answered from the memo vs
	// ranked fresh — already-atomic, so the metrics layer exposes them as
	// scrape-time collectors with zero extra cost per Advise.
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64
}

type advEntry struct {
	gen uint64
	val []api.AdviseCandidate
}

// cacheMax bounds the memo map; on overflow it resets wholesale, matching
// the query layer's table of rendered answers.
const cacheMax = 256

// New builds an Advisor over the store and catalog.
func New(db *store.Store, cat *market.Catalog) *Advisor {
	return &Advisor{db: db, cat: cat, entries: make(map[string]advEntry)}
}

// MemoStats returns how many Advise calls hit the generation-keyed memo
// versus ranked fresh. Hits+misses is the total rankings served.
func (a *Advisor) MemoStats() (hits, misses uint64) {
	return a.memoHits.Load(), a.memoMisses.Load()
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

// ScopeGen returns the store generation of the shards an Advise call with
// these constraints can read: the sum of the per-region scope generations
// when the region set is restricted (each is an append count, so the sum
// moves on any append in scope), the global generation otherwise. It is
// the cache-validity token for both the memo below and the HTTP ETag.
func (a *Advisor) ScopeGen(c Constraints) uint64 {
	if len(c.Regions) == 0 {
		return a.db.GlobalGeneration()
	}
	var sum uint64
	for _, r := range c.Regions {
		sum += a.db.GenerationOfScope(r, "")
	}
	return sum
}

// Advise ranks the markets satisfying c by composite score over [from,
// to]. Only markets with at least one recorded price sample inside the
// window are candidates — the advisor recommends from its own evidence,
// never from catalog price sheets alone. An empty result is a valid
// answer. The returned slice is shared with the memo; callers must not
// mutate it.
func (a *Advisor) Advise(c Constraints, from, to time.Time) []api.AdviseCandidate {
	gen := a.ScopeGen(c) // read before compute: an append racing the fold keys the entry stale
	key := cacheKey(c, from, to)

	a.mu.Lock()
	if e, ok := a.entries[key]; ok && e.gen == gen {
		a.mu.Unlock()
		a.memoHits.Add(1)
		return e.val
	}
	a.mu.Unlock()
	a.memoMisses.Add(1)

	val := a.rank(c, from, to)

	a.mu.Lock()
	if len(a.entries) >= cacheMax {
		a.entries = make(map[string]advEntry)
	}
	a.entries[key] = advEntry{gen: gen, val: val}
	a.mu.Unlock()
	return val
}

func cacheKey(c Constraints, from, to time.Time) string {
	var b strings.Builder
	for _, r := range c.Regions {
		b.WriteString(string(r))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, p := range c.Products {
		b.WriteString(string(p))
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "|%s|%d|%g|%g|%g|%d|%d|%d",
		c.TypePattern, c.MinVCPU, c.MinMemoryGB, c.MaxPrice, c.MaxInterruption, c.N,
		from.UnixNano(), to.UnixNano())
	return b.String()
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

// rank scans the constraint scope once — each region x product pair
// resolves through the store's scope index, each market's folds run under
// one read lock — into a top-n selection, and renders only the winners.
func (a *Advisor) rank(c Constraints, from, to time.Time) []api.AdviseCandidate {
	window := to.Sub(from)
	if window <= 0 {
		return []api.AdviseCandidate{}
	}

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
	visit := func(v store.MarketView) {
		if row, ok := a.score(v, c, from, to); ok {
			top.Push(row)
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

// score applies the per-market filters (the region and product sets are
// the scan's scope already) and scores one market from its shard's folds
// over [from, to]; false when the market is not a candidate.
func (a *Advisor) score(v store.MarketView, c Constraints, from, to time.Time) (scored, bool) {
	id := v.Market()
	if !a.admissible(id.Type, c) {
		return scored{}, false
	}
	ps := v.PriceStats(from, to)
	if ps.Samples == 0 {
		return scored{}, false
	}
	od, err := a.cat.SpotODPrice(id)
	if err != nil || od <= 0 {
		return scored{}, false
	}
	if c.MaxPrice > 0 && ps.Mean > c.MaxPrice {
		return scored{}, false
	}

	window := to.Sub(from)
	crossings := v.CrossingStats(from, to).Crossings
	interruption := float64(crossings) * float64(time.Hour) / float64(window)
	if interruption > 1 {
		interruption = 1
	}
	if c.MaxInterruption > 0 && interruption > c.MaxInterruption {
		return scored{}, false
	}

	spotUnav := float64(v.OutageOverlap(store.ProbeSpot, from, to)) / float64(window)
	if spotUnav > 1 {
		spotUnav = 1
	}
	live := v.OutageOverlap(store.ProbeSpot, to.Add(-time.Second), to) > 0 ||
		v.OutageOverlap(store.ProbeOnDemand, to.Add(-time.Second), to) > 0

	sav01 := clamp01(1 - ps.Mean/od)
	avail := clamp01(1 - spotUnav)
	stability := 1 / (1 + float64(crossings))
	score := 100 * (weightSavings*sav01 + weightAvail*avail + weightStability*stability)
	if live {
		score *= outagePenalty
	}
	revocations, _ := v.RevocationStats(from, to)
	return scored{
		id: id, od: od, prices: ps,
		crossings: crossings, interruption: interruption, spotUnav: spotUnav,
		revocations: revocations, live: live, score: score,
	}, true
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
