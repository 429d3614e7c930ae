// Command ec2sim runs the cloud substrate standalone and inspects it: it
// prints a market's spot price trace, the platform's ground-truth
// on-demand outages, and per-region summaries — useful when calibrating
// the demand model or debugging the simulator without SpotLight on top.
//
// Usage:
//
//	ec2sim [-days 3] [-seed 42] [-tick 5m]
//	       [-market us-east-1d:c3.2xlarge:Linux/UNIX] [-trace]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ec2sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ec2sim", flag.ContinueOnError)
	var (
		days      = fs.Int("days", 3, "simulated days")
		seed      = fs.Uint64("seed", 42, "seed")
		tick      = fs.Duration("tick", 5*time.Minute, "simulation tick")
		marketStr = fs.String("market", "us-east-1d:c3.2xlarge:Linux/UNIX", "market to trace")
		showTrace = fs.Bool("trace", false, "print every price change of -market")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := market.ParseSpotID(*marketStr)
	if err != nil {
		return err
	}

	cat := market.New()
	sim, err := cloud.New(cat, cloud.Config{Seed: *seed, Tick: *tick})
	if err != nil {
		return err
	}
	od, err := sim.OnDemandPrice(id)
	if err != nil {
		return err
	}

	// The market's change-only published price trace: the price before
	// the first step, then one point per step that changed it.
	type pricePoint struct {
		at    time.Time
		price float64
	}
	price, err := sim.SpotPrice(id)
	if err != nil {
		return err
	}
	trace := []pricePoint{{sim.Now(), price}}
	steps := int(time.Duration(*days) * 24 * time.Hour / *tick)
	for i := 0; i < steps; i++ {
		now := sim.Step()
		if price, err = sim.SpotPrice(id); err != nil {
			return err
		}
		if price != trace[len(trace)-1].price {
			trace = append(trace, pricePoint{now, price})
		}
	}
	fmt.Fprintf(out, "market %s: od=$%.4f, %d price changes over %d days\n", id, od, len(trace)-1, *days)
	if *showTrace {
		for _, p := range trace {
			fmt.Fprintf(out, "%s  $%.4f  (%.2fx od)\n", p.at.Format("01-02 15:04"), p.price, p.price/od)
		}
	}

	outages := sim.TrueOutages()
	byRegion := make(map[market.Region]int)
	byRegionDur := make(map[market.Region]time.Duration)
	for _, o := range outages {
		r := o.Pool.Zone.RegionOf()
		byRegion[r]++
		byRegionDur[r] += o.Duration(sim.Now())
	}
	var regions []market.Region
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })

	fmt.Fprintf(out, "\nground-truth on-demand outages: %d intervals\n", len(outages))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "region\toutages\tmean_duration")
	for _, r := range regions {
		mean := time.Duration(0)
		if byRegion[r] > 0 {
			mean = byRegionDur[r] / time.Duration(byRegion[r])
		}
		fmt.Fprintf(tw, "%s\t%d\t%v\n", r, byRegion[r], mean.Round(time.Minute))
	}
	return tw.Flush()
}
