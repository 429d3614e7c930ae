package replica

import "spotlight/internal/obs"

// EnableMetrics registers the replicator's health as scrape-time
// collectors over the atomics the apply loop maintains anyway. Safe before
// or after Start; a nil registry is a no-op.
func (r *Replicator) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("spotlight_replica_applied_total",
		"Records applied from the leader's follow stream.",
		func() float64 { return float64(r.applied.Load()) })
	reg.CounterFunc("spotlight_replica_skipped_total",
		"Stream frames skipped as already held.",
		func() float64 { return float64(r.skipped.Load()) })
	reg.CounterFunc("spotlight_replica_reconnects_total",
		"Follow-stream reconnects (opening frames after the first).",
		func() float64 { return float64(r.reconnects.Load()) })
	reg.CounterFunc("spotlight_replica_resyncs_total",
		"Snapshot transfers to a non-empty follower.",
		func() float64 { return float64(r.resyncs.Load()) })
	reg.GaugeFunc("spotlight_replica_lag_records",
		"Leader generation minus local generation (records behind).",
		func() float64 { return float64(r.Status().Lag) })
	reg.GaugeFunc("spotlight_replica_lag_seconds",
		"Leader clock in the newest position frame minus the leader clock at the newest applied position.",
		r.lagSeconds)
	reg.GaugeFunc("spotlight_replica_connected",
		"1 while the follow stream has framed within StaleAfter, else 0.",
		func() float64 {
			if r.connected() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("spotlight_replica_leader_generation",
		"Newest leader generation observed in a position frame.",
		func() float64 { return float64(r.leaderGen.Load()) })
}
