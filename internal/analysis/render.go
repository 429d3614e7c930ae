package analysis

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"spotlight/internal/market"
)

// Rendering helpers: each figure result renders itself as an aligned text
// table so the study command regenerates the paper's figures as terminal
// output and EXPERIMENTS.md material.

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// writeMatrix writes a labelled matrix of percentages, the shape of Figs
// 5.4-5.6, 5.8, 5.10 and 5.11: a header of corner and cols, then each
// row's label and cells — as CSV, cells in shortest form, or as an
// aligned text table, cells to two places.
func writeMatrix(w io.Writer, asCSV bool, corner string, cols, rows []string, cells [][]float64) error {
	cell := f64
	if !asCSV {
		cell = func(v float64) string { return fmt.Sprintf("%.2f", v) }
	}
	header := append([]string{corner}, cols...)
	grid := make([][]string, len(rows))
	for i, label := range rows {
		grid[i] = []string{label}
		for j := range cols {
			grid[i] = append(grid[i], cell(cells[i][j]))
		}
	}
	if asCSV {
		return writeGrid(w, header, grid)
	}
	tw := newTab(w)
	for _, row := range append([][]string{header}, grid...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// labels renders each of xs with label.
func labels[T any](xs []T, label func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = label(x)
	}
	return out
}

func regionLabel(r market.Region) string { return string(r) }

// windowLabels renders each window's whole seconds with format.
func windowLabels(ws []time.Duration, format string) []string {
	return labels(ws, func(w time.Duration) string { return fmt.Sprintf(format, int(w.Seconds())) })
}

// WriteText renders Fig 5.4.
func (f Fig54) WriteText(w io.Writer) error {
	return writeMatrix(w, false, "window", labels(f.Thresholds, SpikeThresholdLabel), windowLabels(f.Windows, "<=%ds"), f.UnavailabilityPct)
}

// WriteText renders Fig 5.5.
func (f Fig55) WriteText(w io.Writer) error {
	if err := writeMatrix(w, false, "region", f.BinLabels, labels(f.Regions, regionLabel), f.SharePct); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "(total rejected spike-triggered probes: %d)\n", f.Total)
	return err
}

// WriteText renders Fig 5.6.
func (f Fig56) WriteText(w io.Writer) error {
	return writeMatrix(w, false, "region", labels(f.Thresholds, SpikeThresholdLabel), labels(f.Regions, regionLabel), f.UnavailabilityPct)
}

// WriteText renders Fig 5.7.
func (f Fig57) WriteText(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "bin\tby_price_spikes%\tby_related_markets%\tsamples")
	for b, label := range f.BinLabels {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\n", label, f.BySpikePct[b], f.ByRelatedPct[b], f.Samples[b])
	}
	return tw.Flush()
}

// WriteText renders Fig 5.8.
func (f Fig58) WriteText(w io.Writer) error {
	return writeMatrix(w, false, "window", labels(f.Thresholds, SpikeThresholdLabel), windowLabels(f.Windows, "<=%ds"), f.ProbabilityPct)
}

// WriteText renders Fig 5.9.
func (f Fig59) WriteText(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "duration_hours\tcdf%")
	for i, h := range f.HourMarks {
		fmt.Fprintf(tw, "%g\t%.2f\n", h, f.CDFPct[i])
	}
	fmt.Fprintf(tw, "(samples: %d)\n", len(f.Durations))
	return tw.Flush()
}

// withAll is Fig 5.10's rows and cells, its "all" row last.
func (f Fig510) withAll() (rows []string, cells [][]float64) {
	return append(labels(f.Regions, regionLabel), "all"), append(slices.Clip(f.UnavailabilityPct), f.AllPct)
}

// WriteText renders Fig 5.10.
func (f Fig510) WriteText(w io.Writer) error {
	rows, cells := f.withAll()
	return writeMatrix(w, false, "region", f.BinLabels, rows, cells)
}

// WriteText renders Fig 5.11.
func (f Fig511) WriteText(w io.Writer) error {
	if err := writeMatrix(w, false, "region", f.BinLabels, labels(f.Regions, regionLabel), f.SharePct); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "(total spot rejections: %d; below on-demand price: %.1f%%)\n", f.Total, f.BelowODPct)
	return err
}

// WriteText renders Fig 5.12.
func (f Fig512) WriteText(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "window\tod-od%\tspot-spot%\tod-spot%\tspot-od%")
	for wi, win := range f.Windows {
		fmt.Fprintf(tw, "%ds\t%.1f\t%.1f\t%.1f\t%.1f\n",
			int(win.Seconds()), f.ODtoOD[wi], f.SpotToSpot[wi], f.ODToSpot[wi], f.SpotToOD[wi])
	}
	fmt.Fprintf(tw, "(detections: od=%d spot=%d)\n", f.ODDetections, f.SpotDetections)
	return tw.Flush()
}

// WriteText renders a price trace summary (Figs 2.1/5.1).
func (tr PriceTrace) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"%s: %d points, od=$%.4f, min=$%.4f max=$%.4f, above-od %.2f%% of the time\n",
		tr.Market, len(tr.Points), tr.OnDemandPrice, tr.Min, tr.Max, 100*tr.AboveODFraction)
	return err
}

// WriteText renders Fig 5.2.
func (f Fig52) WriteText(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "market %s: %d searches, mean attempts %.2f, premium in %.1f%% of searches\n",
		f.Market, len(f.Records), f.MeanAttempts, 100*f.PremiumFraction)
	fmt.Fprintln(tw, "at\tpublished\tintrinsic\tattempts")
	for _, r := range f.Records {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%d\n",
			r.At.Format("01-02 15:04"), r.Published, r.Intrinsic, r.Attempts)
	}
	return tw.Flush()
}

// WriteText renders Fig 5.3 (summarized per holding period).
func (f Fig53) WriteText(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "market %s (od=$%.4f), %d sampled start times\n",
		f.Market, f.OnDemandPrice, len(f.Times))
	fmt.Fprintln(tw, "holding_hours\tmean_least_bid\tmax_least_bid\tmean_premium_over_spot")
	for hi, h := range f.Hours {
		var sum, maxV, prem float64
		for i, v := range f.HoldPrice[hi] {
			sum += v
			if v > maxV {
				maxV = v
			}
			if f.Spot[i] > 0 {
				prem += v / f.Spot[i]
			}
		}
		n := float64(len(f.HoldPrice[hi]))
		if n == 0 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.2fx\n", h, sum/n, maxV, prem/n)
	}
	return tw.Flush()
}

// WriteText renders Table 2.1.
func WriteTable21(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Contract Type\tCost\tRevocable\tAvailability\tObtainability")
	for _, row := range Table21Contracts() {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			row.Contract, row.Cost, row.Revocable, row.Availability, row.Obtainability)
	}
	return tw.Flush()
}
