package analysis

import (
	"fmt"
	"io"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// Figure is one computed table or figure of the evaluation: Label names
// it as the paper does ("Fig 5.4"), Title says what it shows, Text
// renders its value as a text table and CSV, nil for one with no CSV, as
// plot-ready rows.
type Figure struct {
	Label, Title string
	Text, CSV    func(io.Writer) error
}

// WriteText writes the figure's text under its heading.
func (f Figure) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n=== %s — %s ===\n", f.Label, f.Title); err != nil {
		return err
	}
	return f.Text(w)
}

// rendered is a computed figure's value.
type rendered interface {
	WriteText(io.Writer) error
	WriteCSV(io.Writer) error
}

func figure(label, title string, v rendered) Figure {
	return Figure{Label: label, Title: title, Text: v.WriteText, CSV: v.WriteCSV}
}

// StoreFigures computes the Chapter 5 figures that read the store alone,
// Figs 5.4 to 5.12, in the paper's order.
func StoreFigures(db *store.Store) []Figure {
	return []Figure{
		figure("Fig 5.4", "P(on-demand unavailable) vs spike size (global)", Fig54GlobalUnavailability(db, nil)),
		figure("Fig 5.5", "rejected probes per region vs spike size", Fig55RegionRejectShare(db)),
		figure("Fig 5.6", "P(on-demand unavailable) per region (window 900s)", Fig56RegionUnavailability(db, 0)),
		figure("Fig 5.7", "rejections by price spikes vs related markets", Fig57TriggerBreakdown(db)),
		figure("Fig 5.8", "P(related zone unavailable) vs spike size", Fig58CrossAZ(db, nil)),
		figure("Fig 5.9", "CDF of on-demand outage durations", Fig59OutageDurationCDF(db)),
		figure("Fig 5.10", "spot capacity-not-available vs price level", Fig510SpotUnavailability(db)),
		figure("Fig 5.11", "spot insufficiency distribution", Fig511SpotInsufficiencyDist(db)),
		figure("Fig 5.12", "related-market insufficiency by contract pair", Fig512CrossKind(db, nil)),
	}
}

// StudyFigures computes every table and figure of Chapters 2 and 5 over a
// study's window [from, to], in the paper's order: Table 2.1, the price
// figures (Fig 5.2 follows BidSpread's market bidSpread), then
// StoreFigures. A price figure whose market has no trace in the window
// renders no rows (Fig 2.1 says why) and writes no CSV.
func StudyFigures(db *store.Store, cat *market.Catalog, from, to time.Time, bidSpread market.SpotID) []Figure {
	linux := func(z market.Zone, t market.InstanceType) market.SpotID {
		return market.SpotID{Zone: z, Type: t, Product: market.ProductLinux}
	}
	c32 := linux("us-east-1d", "c3.2xlarge")
	traces := func(label, title string, ids ...market.SpotID) Figure {
		trs, _ := Fig51Traces(db, cat, ids, from, to)
		return Figure{Label: label, Title: title, Text: func(w io.Writer) error {
			for _, tr := range trs {
				if err := tr.WriteText(w); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	f21 := Figure{Label: "Fig 2.1", Title: "spot price vs on-demand (c3.2xlarge us-east-1d)"}
	if tr, err := Fig21PriceTrace(db, cat, c32, from, to); err == nil {
		f21 = figure(f21.Label, f21.Title, tr)
	} else {
		f21.Text = func(w io.Writer) error { _, werr := fmt.Fprintln(w, "(no trace)", err); return werr }
	}
	f53 := Figure{Label: "Fig 5.3", Title: "least bid to hold a spot instance", Text: func(io.Writer) error { return nil }}
	if v, err := Fig53HoldPrices(db, cat, c32, from, to, nil, 0); err == nil {
		f53 = figure(f53.Label, f53.Title, v)
	}
	return append([]Figure{
		{Label: "Table 2.1", Title: "contract tradeoffs", Text: WriteTable21},
		f21,
		traces("Fig 5.1a", "c3.* family prices in us-east-1d",
			c32, linux("us-east-1d", "c3.4xlarge"), linux("us-east-1d", "c3.8xlarge")),
		traces("Fig 5.1b", "c3.2xlarge prices across us-east-1 zones",
			linux("us-east-1a", "c3.2xlarge"), linux("us-east-1b", "c3.2xlarge"), c32),
		figure("Fig 5.2", "intrinsic bid price (BidSpread)", Fig52IntrinsicPrice(db, bidSpread)),
		f53,
	}, StoreFigures(db)...)
}
