// Package analysis reduces a SpotLight study to the exact tables and
// series the paper's Chapter 5 and Chapter 6 plot. Every figure and table
// in the evaluation has one entry point here; the spotlight-study command
// and the repository benchmarks print them.
package analysis

import (
	"fmt"
	"time"
)

// SpikeThresholds are the cumulative spike-size thresholds of
// Figs 5.4/5.6/5.8: a spike "counts at k" when its spot price exceeded
// k times the on-demand price (the ">0, >1X ... >10X" x-axis).
var SpikeThresholds = []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// SpikeThresholdLabel renders a threshold as the paper labels it.
func SpikeThresholdLabel(t float64) string {
	if t == 0 {
		return ">0"
	}
	return fmt.Sprintf(">%gX", t)
}

// spikeRangeBins are the non-cumulative bins of Figs 5.5/5.7
// (<1X, 1X-2X, ..., 9X-10X, >10X).
type spikeRange struct {
	lo, hi float64 // hi < 0 means unbounded
}

var spikeRanges = []spikeRange{
	{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
	{6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, -1},
}

// SpikeRangeLabels renders the Figs 5.5/5.7 bin labels.
func SpikeRangeLabels() []string {
	return labels(spikeRanges, func(r spikeRange) string {
		switch {
		case r.hi < 0:
			return fmt.Sprintf(">%gX", r.lo)
		case r.lo == 0:
			return fmt.Sprintf("<%gX", r.hi)
		}
		return fmt.Sprintf("%gX-%gX", r.lo, r.hi)
	})
}

// spikeRangeIndex buckets a ratio into its range bin.
func spikeRangeIndex(ratio float64) int {
	for i, r := range spikeRanges {
		if r.hi < 0 || ratio < r.hi {
			if ratio >= r.lo {
				return i
			}
		}
	}
	return len(spikeRanges) - 1
}

// PriceRatioThresholds are the cumulative low-price thresholds of
// Fig 5.10: a spot probe falls in threshold k when its spot/on-demand
// ratio is below 1/k (labels "<1/10X ... <1/2X, <1X") plus the final ">1X"
// bucket.
var PriceRatioThresholds = []float64{
	1.0 / 10, 1.0 / 9, 1.0 / 8, 1.0 / 7, 1.0 / 6,
	1.0 / 5, 1.0 / 4, 1.0 / 3, 1.0 / 2, 1,
}

// PriceRatioLabels renders the Fig 5.10 x-axis labels, including the final
// ">1X" bucket.
func PriceRatioLabels() []string {
	return []string{
		"<1/10X", "<1/9X", "<1/8X", "<1/7X", "<1/6X",
		"<1/5X", "<1/4X", "<1/3X", "<1/2X", "<1X", ">1X",
	}
}

// ratioRangeLabels renders the Fig 5.11 non-cumulative bins.
func RatioRangeLabels() []string {
	return []string{
		"<1/10X", "1/10-1/9X", "1/9-1/8X", "1/8-1/7X", "1/7-1/6X",
		"1/6-1/5X", "1/5-1/4X", "1/4-1/3X", "1/3-1/2X", "1/2-1X", ">1X",
	}
}

// ratioRangeIndex buckets a price ratio into its Fig 5.11 range bin.
func ratioRangeIndex(ratio float64) int {
	edges := PriceRatioThresholds // ascending: 1/10 ... 1/2, 1
	for i, e := range edges {
		if ratio < e {
			return i
		}
	}
	return len(edges) // >1X
}

// Fig54Windows are the clustering windows the paper plots in Fig 5.4.
var Fig54Windows = []time.Duration{
	900 * time.Second, 1200 * time.Second, 1800 * time.Second,
	2400 * time.Second, 3600 * time.Second, 7200 * time.Second,
}

// Fig58Windows are the windows of Fig 5.8.
var Fig58Windows = []time.Duration{
	300 * time.Second, 600 * time.Second, 900 * time.Second,
	1800 * time.Second, 2400 * time.Second, 3600 * time.Second,
}

// Fig512Windows are the windows of Fig 5.12.
var Fig512Windows = []time.Duration{
	300 * time.Second, 900 * time.Second, 1800 * time.Second,
	2400 * time.Second, 3600 * time.Second,
}
