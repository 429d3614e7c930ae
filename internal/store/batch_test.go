package store

import (
	"errors"
	"math"

	"spotlight/internal/market"
)

// Batch appends, for tests. The producers append through an Appender or
// one record at a time; these land a batch of one family as one append
// round per market, so the tests drive multi-record rounds of every
// family — what the log, the follow stream and recovery carry as runs —
// and see each round's refusal as an ErrBackInTime error naming the market
// and the family.

// groupByMarket appends a batch of one record family as one append round
// per market, markets in order of first appearance (a price names no
// market, so prices are never grouped). Within one market the input order
// is preserved, and a market's round that goes back in time is refused
// alone; across markets the order is a pure function of the input, so two
// stores fed the same batch publish the same feed sequence. It returns the
// refusals.
func groupByMarket[R record](s *Store, recs []R) error {
	if len(recs) == 0 {
		return nil
	}
	marketOf := func(r *R) market.SpotID { _, m := fields(r); return *m }
	// One market throughout: the input is the batch, nothing to regroup.
	first, same := marketOf(&recs[0]), 1
	for same < len(recs) && marketOf(&recs[same]) == first {
		same++
	}
	if same == len(recs) {
		return appendBatch(s, first, recs)
	}
	groups := make(map[market.SpotID][]R)
	var order []market.SpotID
	for i := range recs {
		id := marketOf(&recs[i])
		group, seen := groups[id]
		if !seen {
			order = append(order, id)
		}
		groups[id] = append(group, recs[i])
	}
	var err error
	for _, id := range order {
		err = errors.Join(err, appendBatch(s, id, groups[id]))
	}
	return err
}

// appendBatch lands rs, a batch of market id, as one append round; its
// shard is created only for a round that keeps time order within itself.
func appendBatch[R record](s *Store, id market.SpotID, rs []R) error {
	if err := inOrder(s, id, math.MinInt64, rs); err != nil || len(rs) == 0 {
		return err
	}
	return appendRows(s.shardFor(id), rs)
}

// AppendProbes logs a batch of probes, one append round per affected
// market (see groupByMarket for the ordering contract), and returns the
// rounds refused for going back in time.
func (s *Store) AppendProbes(rs []ProbeRecord) error {
	return groupByMarket(s, rs)
}

// AppendSpikes logs a batch of spike events, one append round per
// affected market; see AppendProbes.
func (s *Store) AppendSpikes(es []SpikeEvent) error {
	return groupByMarket(s, es)
}

// AppendBidSpreads logs a batch of intrinsic-price search results, one
// append round per affected market; see AppendProbes.
func (s *Store) AppendBidSpreads(rs []BidSpreadRecord) error {
	return groupByMarket(s, rs)
}

// AppendRevocations logs a batch of completed revocation watches, one
// append round per affected market; see AppendProbes.
func (s *Store) AppendRevocations(rs []RevocationRecord) error {
	return groupByMarket(s, rs)
}

// RecordPrices appends a batch of price observations for one market in
// one append round, preserving input order, and returns its refusal when
// it goes back in time.
func (s *Store) RecordPrices(id market.SpotID, ps []PricePoint) error {
	return appendBatch(s, id, ps)
}
