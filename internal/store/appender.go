package store

import (
	"math"
	"sync/atomic"

	"spotlight/internal/market"
)

// Appender is a write handle bound to one market. Hot ingestion paths
// (the per-market probe managers in internal/core) hold one per monitored
// market, so appends go straight to the shard without a store-level map
// lookup. The shard itself is created lazily on the first write: binding
// an Appender to a never-probed market leaves no trace in the store, so
// Markets() keeps its "at least one record" contract. All
// methods are safe for concurrent use.
//
// A record written through an Appender is the bound market's: the handle
// routes it, and the store serves, logs and publishes it under that market
// whatever its own Market field says.
type Appender struct {
	store *Store
	id    market.SpotID
	sh    atomic.Pointer[shard]
}

// Appender returns a write handle bound to id. No shard is created until
// the first write through the handle.
func (s *Store) Appender(id market.SpotID) *Appender {
	return &Appender{store: s, id: id}
}

// shard resolves (and memoizes) the bound market's shard, creating it on
// the first write.
func (a *Appender) shard() *shard {
	if sh := a.sh.Load(); sh != nil {
		return sh
	}
	sh := a.store.shardFor(a.id)
	a.sh.Store(sh)
	return sh
}

// AppendProbes logs a batch of probes of the bound market in one append
// round, preserving input order (the monitor tick flush, bulk loads).
func (a *Appender) AppendProbes(rs []ProbeRecord) {
	if len(rs) > 0 && inOrder(a.store, a.id, math.MinInt64, rs) == nil {
		appendRows(a.shard(), rs)
	}
}

// AppendSpike logs one threshold crossing of the bound market.
func (a *Appender) AppendSpike(e SpikeEvent) { appendRows(a.shard(), []SpikeEvent{e}) }

// AppendBidSpread logs one intrinsic-price search of the bound market.
func (a *Appender) AppendBidSpread(r BidSpreadRecord) {
	appendRows(a.shard(), []BidSpreadRecord{r})
}

// AppendRevocation logs one revocation watch of the bound market.
func (a *Appender) AppendRevocation(r RevocationRecord) {
	appendRows(a.shard(), []RevocationRecord{r})
}

// RecordPrice appends one price observation of the bound market.
func (a *Appender) RecordPrice(p PricePoint) { appendRows(a.shard(), []PricePoint{p}) }
