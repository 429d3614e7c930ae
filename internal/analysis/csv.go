package analysis

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// CSV writers: the same grids as the WriteText renderers, machine-readable
// for offline plotting. Each figure's CSV starts with a header row.

func writeGrid(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("analysis: write csv header: %w", err)
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("analysis: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV emits window x threshold unavailability percentages.
func (f Fig54) WriteCSV(w io.Writer) error {
	return writeMatrix(w, true, "window_s", labels(f.Thresholds, SpikeThresholdLabel), windowLabels(f.Windows, "%d"), f.UnavailabilityPct)
}

// WriteCSV emits region x bin rejection shares.
func (f Fig55) WriteCSV(w io.Writer) error {
	return writeMatrix(w, true, "region", f.BinLabels, labels(f.Regions, regionLabel), f.SharePct)
}

// WriteCSV emits region x threshold unavailability percentages.
func (f Fig56) WriteCSV(w io.Writer) error {
	return writeMatrix(w, true, "region", labels(f.Thresholds, SpikeThresholdLabel), labels(f.Regions, regionLabel), f.UnavailabilityPct)
}

// WriteCSV emits the spike/related split per bin.
func (f Fig57) WriteCSV(w io.Writer) error {
	header := []string{"bin", "by_price_spikes_pct", "by_related_markets_pct", "samples"}
	var rows [][]string
	for b, label := range f.BinLabels {
		rows = append(rows, []string{
			label, f64(f.BySpikePct[b]), f64(f.ByRelatedPct[b]), strconv.Itoa(f.Samples[b]),
		})
	}
	return writeGrid(w, header, rows)
}

// WriteCSV emits window x threshold cross-zone probabilities.
func (f Fig58) WriteCSV(w io.Writer) error {
	return writeMatrix(w, true, "window_s", labels(f.Thresholds, SpikeThresholdLabel), windowLabels(f.Windows, "%d"), f.ProbabilityPct)
}

// WriteCSV emits the raw sorted outage durations plus the CDF marks.
func (f Fig59) WriteCSV(w io.Writer) error {
	header := []string{"duration_hours", "cdf_pct"}
	var rows [][]string
	for i, h := range f.HourMarks {
		rows = append(rows, []string{f64(h), f64(f.CDFPct[i])})
	}
	return writeGrid(w, header, rows)
}

// WriteCSV emits region (plus "all") x price-bin rejection percentages.
func (f Fig510) WriteCSV(w io.Writer) error {
	rows, cells := f.withAll()
	return writeMatrix(w, true, "region", f.BinLabels, rows, cells)
}

// WriteCSV emits region x ratio-bin shares.
func (f Fig511) WriteCSV(w io.Writer) error {
	return writeMatrix(w, true, "region", f.BinLabels, labels(f.Regions, regionLabel), f.SharePct)
}

// WriteCSV emits the four pair series per window.
func (f Fig512) WriteCSV(w io.Writer) error {
	header := []string{"window_s", "od_od_pct", "spot_spot_pct", "od_spot_pct", "spot_od_pct"}
	var rows [][]string
	for wi, win := range f.Windows {
		rows = append(rows, []string{
			strconv.Itoa(int(win.Seconds())),
			f64(f.ODtoOD[wi]), f64(f.SpotToSpot[wi]),
			f64(f.ODToSpot[wi]), f64(f.SpotToOD[wi]),
		})
	}
	return writeGrid(w, header, rows)
}

// WriteCSV emits the raw price change points.
func (tr PriceTrace) WriteCSV(w io.Writer) error {
	header := []string{"at", "price", "od_price"}
	var rows [][]string
	for _, p := range tr.Points {
		rows = append(rows, []string{p.At.Format(time.RFC3339), f64(p.Price), f64(tr.OnDemandPrice)})
	}
	return writeGrid(w, header, rows)
}

// WriteCSV emits the published/intrinsic pairs.
func (f Fig52) WriteCSV(w io.Writer) error {
	header := []string{"at", "published", "intrinsic", "attempts"}
	var rows [][]string
	for _, r := range f.Records {
		rows = append(rows, []string{
			r.At.Format(time.RFC3339), f64(r.Published), f64(r.Intrinsic), strconv.Itoa(r.Attempts),
		})
	}
	return writeGrid(w, header, rows)
}

// WriteCSV emits the hold-price series: one row per sampled start time.
func (f Fig53) WriteCSV(w io.Writer) error {
	header := []string{"at", "spot"}
	for _, h := range f.Hours {
		header = append(header, fmt.Sprintf("hold_%dh", h))
	}
	header = append(header, "od_price")
	var rows [][]string
	for i, t := range f.Times {
		row := []string{t.Format(time.RFC3339), f64(f.Spot[i])}
		for hi := range f.Hours {
			row = append(row, f64(f.HoldPrice[hi][i]))
		}
		row = append(row, f64(f.OnDemandPrice))
		rows = append(rows, row)
	}
	return writeGrid(w, header, rows)
}
