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

	from, to := st.Window()
	figs := analysis.StudyFigures(st.DB, st.Cat, from, to, experiment.BidSpreadMarket())
	if err := writeFigures(out, st, figs, *trials); err != nil {
		return err
	}
	if *outDir != "" {
		if err := dump(st, figs, *outDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nraw data written to %s\n", *outDir)
	}
	return nil
}

func section(out io.Writer, title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
}

// writeFigures writes figs as text, then runs and writes the Chapter 6
// case studies.
func writeFigures(out io.Writer, st *experiment.Study, figs []analysis.Figure, trials int) error {
	for _, f := range figs {
		if err := f.WriteText(out); err != nil {
			return err
		}
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
// image as a follow stream, which spotlight-analyze loads) and, in figs'
// order, the CSV of every figure that has one: fig5_4.csv for Fig 5.4.
func dump(st *experiment.Study, figs []analysis.Figure, dir string) error {
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

	for _, f := range figs {
		if f.CSV == nil {
			continue
		}
		name := "fig" + strings.ReplaceAll(strings.TrimPrefix(f.Label, "Fig "), ".", "_") + ".csv"
		if err := writeFile(name, f.CSV); err != nil {
			return err
		}
	}
	return nil
}
