package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"spotlight/internal/market"
)

// captureAll captures every shard (each under its own lock) in market-ID
// order.
func (s *Store) captureAll() []shardCapture {
	shards := s.shardList()
	captures := make([]shardCapture, len(shards))
	for i, sh := range shards {
		captures[i] = sh.capture()
	}
	return captures
}

// writeCSV writes header, then row(r) for each of recs, as CSV.
func writeCSV[T any](w io.Writer, header []string, recs []T, row func(T) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("store: write csv header: %w", err)
	}
	for _, r := range recs {
		if err := cw.Write(row(r)); err != nil {
			return fmt.Errorf("store: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSpikesCSV writes the spike-event log as CSV with a header row.
func (s *Store) WriteSpikesCSV(w io.Writer) error {
	return writeCSV(w, []string{"at", "market", "price", "ratio", "probed"}, s.Spikes(), func(e SpikeEvent) []string {
		return []string{e.At.Format(time.RFC3339), e.Market.String(), formatFloat(e.Price), formatFloat(e.Ratio), strconv.FormatBool(e.Probed)}
	})
}

// WriteOutagesCSV writes the detected outage intervals as CSV.
func (s *Store) WriteOutagesCSV(w io.Writer) error {
	return writeCSV(w, []string{"market", "kind", "start", "end"}, s.Outages(), func(o OutageRecord) []string {
		end := ""
		if !o.End.IsZero() {
			end = o.End.Format(time.RFC3339)
		}
		return []string{o.Market.String(), o.Kind.String(), o.Start.Format(time.RFC3339), end}
	})
}

// WriteProbesCSV writes the probe log as CSV with a header row.
func (s *Store) WriteProbesCSV(w io.Writer) error {
	header := []string{
		"at", "market", "kind", "trigger", "trigger_market",
		"spike_ratio", "price_ratio", "rejected", "code", "bid", "cost",
	}
	return writeCSV(w, header, s.Probes(), func(r ProbeRecord) []string {
		return []string{
			r.At.Format(time.RFC3339), r.Market.String(), r.Kind.String(), r.Trigger.String(), r.TriggerMarket.String(),
			formatFloat(r.SpikeRatio), formatFloat(r.PriceRatio), strconv.FormatBool(r.Rejected), r.Code,
			formatFloat(r.Bid), formatFloat(r.Cost),
		}
	})
}

// WritePricesCSV writes every recorded price sample as CSV, market by
// market in market-ID order.
func (s *Store) WritePricesCSV(w io.Writer) error {
	type sample struct {
		id market.SpotID
		PricePoint
	}
	var all []sample
	for _, id := range s.PricedMarkets() {
		for _, p := range s.Prices(id) {
			all = append(all, sample{id, p})
		}
	}
	return writeCSV(w, []string{"market", "at", "price"}, all, func(p sample) []string {
		return []string{p.id.String(), p.At.Format(time.RFC3339), formatFloat(p.Price)}
	})
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
