// Command spotlight-study runs the paper's measurement study end to end on
// the simulated cloud and regenerates every table and figure of the
// evaluation as text tables (Chapter 5 observations and the Chapter 6 case
// studies). Optionally dumps the raw probe/price logs for offline
// plotting, and the whole store (store.stream) for spotlight-analyze.
//
// Usage:
//
//	spotlight-study [-days 30] [-seed 42] [-tick 5m] [-trials 100]
//	                [-regions us-east-1,sa-east-1] [-out results/]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spotlight/internal/analysis"
	"spotlight/internal/experiment"
	"spotlight/internal/market"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spotlight-study:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spotlight-study", flag.ContinueOnError)
	var (
		days    = fs.Int("days", 30, "simulated study length in days")
		seed    = fs.Uint64("seed", 42, "study seed")
		tick    = fs.Duration("tick", 5*time.Minute, "simulation tick")
		trials  = fs.Int("trials", 100, "SpotOn trials per market (Fig 6.2)")
		regions = fs.String("regions", "", "comma-separated region filter (default: all)")
		outDir  = fs.String("out", "", "directory for raw CSV dumps and the store dump (optional)")
		quiet   = fs.Bool("quiet", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiment.Config{
		Seed: *seed,
		Days: *days,
		Tick: *tick,
	}
	if *regions != "" {
		for _, r := range strings.Split(*regions, ",") {
			cfg.Regions = append(cfg.Regions, market.Region(strings.TrimSpace(r)))
		}
	}
	if !*quiet {
		cfg.Progress = func(day, total int) {
			fmt.Fprintf(os.Stderr, "\rsimulating day %d/%d...", day, total)
			if day == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	start := time.Now()
	st, err := experiment.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "study: %d days, seed %d, %d probes, %d spikes, $%.0f spent (wall %v)\n\n",
		*days, *seed, st.DB.ProbeCount(), len(st.DB.Spikes()), st.Svc.Spent(),
		time.Since(start).Round(time.Second))

	if err := writeFigures(out, st, *trials); err != nil {
		return err
	}
	if *outDir != "" {
		if err := dump(st, *outDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nraw data written to %s\n", *outDir)
	}
	return nil
}

func section(out io.Writer, title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
}

func writeFigures(out io.Writer, st *experiment.Study, trials int) error {
	from, to := st.Window()

	section(out, "Table 2.1 — contract tradeoffs")
	if err := analysis.WriteTable21(out); err != nil {
		return err
	}

	section(out, "Fig 2.1 — spot price vs on-demand (c3.2xlarge us-east-1d)")
	c32 := market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	if tr, err := analysis.Fig21PriceTrace(st.DB, st.Cat, c32, from, to); err == nil {
		if err := tr.WriteText(out); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(out, "(no trace)", err)
	}

	section(out, "Fig 5.1a — c3.* family prices in us-east-1d")
	fam := []market.SpotID{
		{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.4xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.8xlarge", Product: market.ProductLinux},
	}
	if trs, err := analysis.Fig51Traces(st.DB, st.Cat, fam, from, to); err == nil {
		for _, tr := range trs {
			if err := tr.WriteText(out); err != nil {
				return err
			}
		}
	}

	section(out, "Fig 5.1b — c3.2xlarge prices across us-east-1 zones")
	zones := []market.SpotID{
		{Zone: "us-east-1a", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1b", Type: "c3.2xlarge", Product: market.ProductLinux},
		{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux},
	}
	if trs, err := analysis.Fig51Traces(st.DB, st.Cat, zones, from, to); err == nil {
		for _, tr := range trs {
			if err := tr.WriteText(out); err != nil {
				return err
			}
		}
	}

	section(out, "Fig 5.2 — intrinsic bid price (BidSpread)")
	if err := analysis.Fig52IntrinsicPrice(st.DB, experiment.BidSpreadMarket()).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.3 — least bid to hold a spot instance")
	if f53, err := analysis.Fig53HoldPrices(st.DB, st.Cat, c32, from, to, nil, 0); err == nil {
		if err := f53.WriteText(out); err != nil {
			return err
		}
	}

	section(out, "Fig 5.4 — P(on-demand unavailable) vs spike size (global)")
	if err := analysis.Fig54GlobalUnavailability(st.DB, nil).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.5 — rejected probes per region vs spike size")
	if err := analysis.Fig55RegionRejectShare(st.DB).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.6 — P(on-demand unavailable) per region (window 900s)")
	if err := analysis.Fig56RegionUnavailability(st.DB, 0).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.7 — rejections by price spikes vs related markets")
	if err := analysis.Fig57TriggerBreakdown(st.DB).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.8 — P(related zone unavailable) vs spike size")
	if err := analysis.Fig58CrossAZ(st.DB, nil).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.9 — CDF of on-demand outage durations")
	if err := analysis.Fig59OutageDurationCDF(st.DB).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.10 — spot capacity-not-available vs price level")
	if err := analysis.Fig510SpotUnavailability(st.DB).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.11 — spot insufficiency distribution")
	if err := analysis.Fig511SpotInsufficiencyDist(st.DB).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 5.12 — related-market insufficiency by contract pair")
	if err := analysis.Fig512CrossKind(st.DB, nil).WriteText(out); err != nil {
		return err
	}

	section(out, "Fig 6.1 — SpotCheck availability")
	rows61, err := st.RunSpotCheck()
	if err != nil {
		return err
	}
	if err := experiment.WriteFig61(out, rows61); err != nil {
		return err
	}

	section(out, "Fig 6.2 — SpotOn completion time")
	rows62, err := st.RunSpotOn(trials)
	if err != nil {
		return err
	}
	return experiment.WriteFig62(out, rows62)
}

// dump writes the raw logs, the store's dump (store.stream: the store's
// image as a follow stream, which spotlight-analyze loads) and one
// plot-ready CSV per figure.
func dump(st *experiment.Study, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeFile := func(name string, fill func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fill(f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return f.Close()
	}

	if err := writeFile("probes.csv", st.DB.WriteProbesCSV); err != nil {
		return err
	}
	if err := writeFile("prices.csv", st.DB.WritePricesCSV); err != nil {
		return err
	}
	if err := writeFile("spikes.csv", st.DB.WriteSpikesCSV); err != nil {
		return err
	}
	if err := writeFile("outages.csv", st.DB.WriteOutagesCSV); err != nil {
		return err
	}
	if err := writeFile("store.stream", st.WriteDump); err != nil {
		return err
	}

	from, to := st.Window()
	figs := map[string]func(io.Writer) error{
		"fig5_4.csv":  analysis.Fig54GlobalUnavailability(st.DB, nil).WriteCSV,
		"fig5_5.csv":  analysis.Fig55RegionRejectShare(st.DB).WriteCSV,
		"fig5_6.csv":  analysis.Fig56RegionUnavailability(st.DB, 0).WriteCSV,
		"fig5_7.csv":  analysis.Fig57TriggerBreakdown(st.DB).WriteCSV,
		"fig5_8.csv":  analysis.Fig58CrossAZ(st.DB, nil).WriteCSV,
		"fig5_9.csv":  analysis.Fig59OutageDurationCDF(st.DB).WriteCSV,
		"fig5_10.csv": analysis.Fig510SpotUnavailability(st.DB).WriteCSV,
		"fig5_11.csv": analysis.Fig511SpotInsufficiencyDist(st.DB).WriteCSV,
		"fig5_12.csv": analysis.Fig512CrossKind(st.DB, nil).WriteCSV,
		"fig5_2.csv":  analysis.Fig52IntrinsicPrice(st.DB, experiment.BidSpreadMarket()).WriteCSV,
	}
	c32 := market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	if tr, err := analysis.Fig21PriceTrace(st.DB, st.Cat, c32, from, to); err == nil {
		figs["fig2_1.csv"] = tr.WriteCSV
	}
	if f53, err := analysis.Fig53HoldPrices(st.DB, st.Cat, c32, from, to, nil, 0); err == nil {
		figs["fig5_3.csv"] = f53.WriteCSV
	}
	for name, fill := range figs {
		if err := writeFile(name, fill); err != nil {
			return err
		}
	}
	return nil
}
