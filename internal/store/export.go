package store

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"spotlight/internal/market"
)

// Snapshot is the JSON-serializable view of the whole store, used to dump
// a study's raw data to disk.
type Snapshot struct {
	Probes      []ProbeRecord           `json:"probes"`
	Spikes      []SpikeEvent            `json:"spikes"`
	BidSpreads  []BidSpreadRecord       `json:"bidSpreads"`
	Revocations []RevocationRecord      `json:"revocations"`
	Outages     []OutageRecord          `json:"outages"`
	Prices      map[string][]PricePoint `json:"prices"`
}

// WriteJSON serializes the full store contents to w. Each shard is
// captured under a single lock hold, so every record stream reflects the
// same per-market cut: a concurrent append lands either in all of its
// market's streams or in none of them, never partially. Streams are the
// usual timestamp-ordered merge across shards.
func (s *Store) WriteJSON(w io.Writer) error {
	snap := assembleSnapshot(s.captureAll())
	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	return nil
}

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

// assembleSnapshot merges per-shard captures into the snapshot schema:
// global streams ordered by timestamp (ties in market-ID order, which is
// the captures' order) and the per-market price map.
func assembleSnapshot(captures []shardCapture) Snapshot {
	snap := Snapshot{
		Probes:      mergeByTime(captures, shardCapture.probeRun, probeAt),
		Spikes:      mergeByTime(captures, shardCapture.spikeRun, spikeAt),
		BidSpreads:  mergeByTime(captures, shardCapture.bidSpreadRun, bidSpreadAt),
		Revocations: mergeByTime(captures, shardCapture.revocationRun, revocationAt),
		Outages:     mergeByTime(captures, shardCapture.outageRun, outageAt),
		Prices:      make(map[string][]PricePoint),
	}
	for _, c := range captures {
		if c.prices.len() > 0 {
			snap.Prices[c.id.String()] = c.prices.rows(nil)
		}
	}
	return snap
}

// The runs mergeByTime merges across captures: one family's records of one
// capture, in append order.
func (c shardCapture) probeRun() []ProbeRecord {
	return rows(nil, c.probes, c.owner, probeOf)
}

func (c shardCapture) spikeRun() []SpikeEvent {
	return rows(nil, c.spikes, c.owner, spikeOf)
}

func (c shardCapture) bidSpreadRun() []BidSpreadRecord {
	return rows(nil, c.bidSpreads, c.owner, bidSpreadOf)
}

func (c shardCapture) revocationRun() []RevocationRecord {
	return rows(nil, c.revocations, c.owner, revocationOf)
}

// outageRun reads the capture's outages from its probes, in the order
// they opened.
func (c shardCapture) outageRun() []OutageRecord {
	return outageRecords(nil, c.probes, c.owner, -1)
}

// ReadJSON loads a dump previously produced by WriteJSON into a fresh
// Store through the ordinary append paths, so rollups and generation
// counters rebuild to the values the dumped store had. The
// outage stream is ignored: outages are derived state, rebuilt from the
// probe log. This is the offline-analysis path: collect a study once,
// regenerate figures from the dump as often as needed. A dump that goes
// back in time within a (market, family) series is an error naming the
// market (ErrBackInTime).
//
// Replay order is a pure function of the dump — each family in schema order,
// markets by first appearance within a family, price series in market-ID
// order — so two loads of the same dump produce identical stores, scope
// member order included.
func ReadJSON(r io.Reader) (*Store, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	s := New()
	err := errors.Join(s.AppendProbes(snap.Probes), s.AppendSpikes(snap.Spikes),
		s.AppendBidSpreads(snap.BidSpreads), s.AppendRevocations(snap.Revocations))
	priceKeys := make([]string, 0, len(snap.Prices))
	for idStr := range snap.Prices {
		priceKeys = append(priceKeys, idStr)
	}
	sort.Strings(priceKeys)
	for _, idStr := range priceKeys {
		id, perr := market.ParseSpotID(idStr)
		if perr != nil {
			return nil, fmt.Errorf("store: snapshot price key: %w", perr)
		}
		err = errors.Join(err, s.RecordPrices(id, snap.Prices[idStr]))
	}
	if err != nil {
		return nil, fmt.Errorf("store: load snapshot: %w", err)
	}
	return s, nil
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
