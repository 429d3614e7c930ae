// Package experiment wires the catalog, the cloud simulator, and the
// SpotLight service into reproducible studies — the code path behind the
// paper's "we deployed SpotLight on EC2 and used it to monitor the
// availability of more than 4500 distinct server types across 9
// geographical regions over a 3 month period", compressed into simulated
// time. The same Study object feeds the analysis layer, the case studies,
// the command-line tools, and the benchmarks.
package experiment

import (
	"fmt"
	"io"
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/core"
	"spotlight/internal/market"
	"spotlight/internal/store"
)

// Config parameterizes one study run.
type Config struct {
	// Seed makes the whole study reproducible.
	Seed uint64
	// Days is the simulated study length. The paper ran for ~90 days;
	// the default here is 30, which reproduces every figure's shape in
	// reasonable wall-clock time. Benchmarks use less.
	Days int
	// Tick is the simulation step (default 5 minutes).
	Tick time.Duration
	// Regions restricts the study (default: all nine).
	Regions []market.Region
	// Spotlight overrides the service configuration. Watched, BidSpread,
	// and Revocation market lists default to the figure/case-study
	// markets when left empty.
	Spotlight core.Config
	// Cloud overrides simulator knobs; Seed/Tick/VolatileMarkets/
	// StrongPools are managed by the harness.
	Cloud cloud.Config
	// Progress, when set, is invoked once per simulated day.
	Progress func(day, totalDays int)
	// DB, when set, is the store the study logs into — typically a
	// durable store from store.Open, pre-loaded with a previous run's
	// records. Default: a fresh in-memory store.
	DB *store.Store
	// ResumeAt, when after the simulator's genesis instant, jumps the
	// simulation clock forward before the study starts: the way a
	// restarted daemon continues a persisted study's timeline instead of
	// re-living it from the epoch.
	ResumeAt time.Time
}

// Study is a completed (or initialized) study: the simulator, the
// service, and the database, plus the time window covered.
type Study struct {
	Cfg   Config
	Cat   *market.Catalog
	Sim   *cloud.Sim
	Svc   *core.Service
	DB    *store.Store
	Start time.Time
	End   time.Time
}

// TracedMarkets returns the markets whose full price history the default
// study records: the c3 family markets behind Figs 2.1, 5.1 and 5.3, the
// BidSpread market of Fig 5.2, and the six case-study markets of Chapter 6.
func TracedMarkets() []market.SpotID {
	out := []market.SpotID{
		{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.4xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.8xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1a", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1b", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1e", Type: "c3.8xlarge", Product: market.ProductLinux},
	}
	return append(out, CaseStudyMarkets()...)
}

// CaseStudyMarkets returns the six markets of Figs 6.1 and 6.2, in the
// paper's presentation order: d2.2x/d2.8x Windows and Linux in
// us-east-1e, and g2.8xlarge in two ap-southeast-2 zones.
func CaseStudyMarkets() []market.SpotID {
	return []market.SpotID{
		{Zone: "us-east-1e", Type: "d2.2xlarge", Product: market.ProductWindows},
		{Zone: "us-east-1e", Type: "d2.8xlarge", Product: market.ProductWindows},
		{Zone: "us-east-1e", Type: "d2.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1e", Type: "d2.8xlarge", Product: market.ProductLinux},
		{Zone: "ap-southeast-2a", Type: "g2.8xlarge", Product: market.ProductLinux},
		{Zone: "ap-southeast-2b", Type: "g2.8xlarge", Product: market.ProductLinux},
	}
}

// BidSpreadMarket is the volatile market of Fig 5.2.
func BidSpreadMarket() market.SpotID {
	return market.SpotID{Zone: "us-east-1e", Type: "c3.8xlarge", Product: market.ProductLinux}
}

// caseStudyPools returns the capacity pools behind the case-study markets,
// which the simulator is told to couple strongly (the paper chose those
// markets *because* their on-demand tiers fail exactly when their spot
// prices spike).
func caseStudyPools() []market.PoolID {
	seen := make(map[market.PoolID]bool)
	var out []market.PoolID
	for _, m := range CaseStudyMarkets() {
		p := m.Pool()
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// New initializes a study without running it: the simulator and service
// are live, positioned at Start.
func New(cfg Config) (*Study, error) {
	if cfg.Days == 0 {
		cfg.Days = 30
	}
	if cfg.Days < 0 {
		return nil, fmt.Errorf("experiment: negative study length %d days", cfg.Days)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Minute
	}

	cat := market.New()

	cloudCfg := cfg.Cloud
	cloudCfg.Seed = cfg.Seed
	cloudCfg.Tick = cfg.Tick
	cloudCfg.VolatileMarkets = append(append([]market.SpotID(nil), CaseStudyMarkets()...), BidSpreadMarket())
	cloudCfg.StrongPools = caseStudyPools()
	sim, err := cloud.New(cat, cloudCfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	slCfg := cfg.Spotlight
	slCfg.Seed = cfg.Seed
	if len(slCfg.Regions) == 0 {
		slCfg.Regions = cfg.Regions
	}
	if len(slCfg.WatchedMarkets) == 0 {
		slCfg.WatchedMarkets = TracedMarkets()
	}
	if len(slCfg.BidSpreadMarkets) == 0 {
		slCfg.BidSpreadMarkets = []market.SpotID{BidSpreadMarket()}
	}
	if len(slCfg.RevocationMarkets) == 0 {
		slCfg.RevocationMarkets = CaseStudyMarkets()
	}
	db := cfg.DB
	if db == nil {
		db = store.New()
	}
	svc, err := core.New(sim, db, slCfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if !cfg.ResumeAt.IsZero() {
		sim.AdvanceTo(cfg.ResumeAt)
	}

	return &Study{
		Cfg:   cfg,
		Cat:   cat,
		Sim:   sim,
		Svc:   svc,
		DB:    db,
		Start: sim.Now(),
		End:   sim.Now(),
	}, nil
}

// Run initializes and executes a full study.
func Run(cfg Config) (*Study, error) {
	st, err := New(cfg)
	if err != nil {
		return nil, err
	}
	st.RunDays(st.Cfg.Days)
	return st, nil
}

// RunDays advances the study by n simulated days.
func (st *Study) RunDays(n int) {
	stepsPerDay := int(24 * time.Hour / st.Cfg.Tick)
	for day := 0; day < n; day++ {
		for i := 0; i < stepsPerDay; i++ {
			st.Sim.Step()
			st.Svc.OnTick()
		}
		st.End = st.Sim.Now()
		if st.Cfg.Progress != nil {
			st.Cfg.Progress(day+1, n)
		}
	}
}

// Window returns the study's covered time range.
func (st *Study) Window() (from, to time.Time) { return st.Start, st.End }

// WriteDump writes the study's raw observations as a follow stream
// (internal/store's stream.go), all at the study's end clock: an opening
// position, then the store's image and the position after it. Store.Follow
// loads it into a fresh store; a dump that ends before that closing
// position was cut short, even where it ends at a frame boundary.
func (st *Study) WriteDump(w io.Writer) error {
	sw := store.NewStreamWriter(w, store.Position{Gen: st.DB.GlobalGeneration()})
	if err := sw.Position(st.End); err != nil {
		return err
	}
	return sw.Snapshot(st.DB, st.End)
}
