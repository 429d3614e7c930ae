// Package spoton reproduces the paper's second case study (§6.2): SpotOn,
// a batch computing service that runs jobs on spot servers with
// checkpointing, restarting from the last checkpoint on an on-demand
// server after a revocation. SpotOn picks the spot market minimizing the
// expected cost of Eq 6.1 — and, like SpotCheck, implicitly assumes the
// on-demand fallback is always obtainable. Fig 6.2 shows job running
// times inflating 15-72% once real on-demand availability is accounted
// for, and recovering when SpotLight steers the fallback to an
// uncorrelated market.
package spoton

import (
	"errors"
	"math"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// ExpectedCostParams are the inputs of the paper's Eq 6.1.
type ExpectedCostParams struct {
	// SpotPrice is the market's spot price per hour.
	SpotPrice float64
	// RevocationProb is Pk: the probability the job is revoked before it
	// completes on this market.
	RevocationProb float64
	// ExpectedRevocationTime is E[Zk]: the expected time to revocation.
	ExpectedRevocationTime time.Duration
	// RemainingTime is T: the job's remaining running time.
	RemainingTime time.Duration
	// CheckpointTime is Tc: the time one checkpoint takes (a function of
	// the job's memory footprint).
	CheckpointTime time.Duration
	// CheckpointInterval is τ: how often checkpoints are taken.
	CheckpointInterval time.Duration
	// LostWork is TL: the expected work lost at a revocation (at most
	// one checkpoint interval).
	LostWork time.Duration
}

// ExpectedCostPerUnitTime evaluates Eq 6.1: the expected cost per unit of
// useful work on spot market k when checkpointing,
//
//	[(1-Pk)*T + Pk*E(Zk)] * spot-price
//	-----------------------------------------------------
//	(1-Pk)*T + Pk*(E(Zk)-TL) - (E(Zk)/τ)*Tc
//
// It returns an error when the parameters make the useful-work denominator
// non-positive (checkpointing overhead swallows all progress).
func ExpectedCostPerUnitTime(p ExpectedCostParams) (float64, error) {
	if p.CheckpointInterval <= 0 {
		return 0, errors.New("spoton: non-positive checkpoint interval")
	}
	if p.RevocationProb < 0 || p.RevocationProb > 1 {
		return 0, errors.New("spoton: revocation probability outside [0,1]")
	}
	tHours := p.RemainingTime.Hours()
	zHours := p.ExpectedRevocationTime.Hours()
	numer := ((1-p.RevocationProb)*tHours + p.RevocationProb*zHours) * p.SpotPrice
	denom := (1-p.RevocationProb)*tHours +
		p.RevocationProb*(zHours-p.LostWork.Hours()) -
		(zHours/p.CheckpointInterval.Hours())*p.CheckpointTime.Hours()
	if denom <= 0 {
		return 0, errors.New("spoton: checkpoint overhead exceeds useful work")
	}
	return numer / denom, nil
}

// Platform answers on-demand obtainability, as in package spotcheck.
type Platform interface {
	ODAvailable(m market.SpotID, t time.Time) bool
}

// FallbackPolicy picks the on-demand market a revoked job restarts on.
type FallbackPolicy func(t time.Time) market.SpotID

// JobConfig describes one batch job run.
type JobConfig struct {
	// Market hosts the job's spot server.
	Market market.SpotID
	// ODPrice is the market's on-demand price; revocation happens when
	// the spot price exceeds it (the job bids the on-demand price).
	ODPrice float64
	// Trace is the market's published price history.
	Trace []store.PricePoint
	// Platform answers fallback availability.
	Platform Platform
	// Fallback picks the restart market; nil restarts on the same
	// market's on-demand tier (the paper's baseline SpotOn).
	Fallback FallbackPolicy

	// RunningTime is the job's useful work (paper: 1 hour).
	RunningTime time.Duration
	// CheckpointTime is the cost of writing one checkpoint (paper: a
	// job with an 8 GB footprint takes ~6 minutes).
	CheckpointTime time.Duration
	// CheckpointInterval is τ. Default 15 minutes.
	CheckpointInterval time.Duration
	// Start is when the job begins.
	Start time.Time
	// Tick is the simulation granularity. Default 1 minute.
	Tick time.Duration
	// Deadline bounds the simulation to keep pathological configurations
	// finite. Default 10x the running time plus a day.
	Deadline time.Duration
}

// JobResult is the outcome of one job run.
type JobResult struct {
	// Completion is total wall-clock from start to finish, the Fig 6.2
	// metric.
	Completion time.Duration
	// Revocations counts spot revocations the job survived.
	Revocations int
	// WaitedForOD is time spent waiting for an unavailable on-demand
	// fallback — zero under the paper's (false) assumption.
	WaitedForOD time.Duration
	// LostWork is the total work rolled back at revocations.
	LostWork time.Duration
	// Finished is false if the deadline elapsed first.
	Finished bool
}

// RunJob simulates one checkpointed batch job over the price trace.
func RunJob(cfg JobConfig) (JobResult, error) {
	if len(cfg.Trace) == 0 {
		return JobResult{}, errors.New("spoton: empty price trace")
	}
	if cfg.Platform == nil {
		return JobResult{}, errors.New("spoton: nil platform")
	}
	if cfg.ODPrice <= 0 {
		return JobResult{}, errors.New("spoton: non-positive on-demand price")
	}
	if cfg.RunningTime <= 0 {
		return JobResult{}, errors.New("spoton: non-positive running time")
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 15 * time.Minute
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Minute
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 10*cfg.RunningTime + 24*time.Hour
	}
	if cfg.Start.IsZero() {
		cfg.Start = cfg.Trace[0].At
	}
	fallback := cfg.Fallback
	if fallback == nil {
		fallback = func(time.Time) market.SpotID { return cfg.Market }
	}

	var (
		res          JobResult
		done         time.Duration // completed useful work
		checkpointed time.Duration // work safely persisted
		sinceCkpt    time.Duration // work since the last checkpoint
		ckptLeft     time.Duration // remaining current checkpoint write
		onSpot       = true
		waiting      = false
		traceIdx     int
	)
	priceAt := func(t time.Time) float64 {
		for traceIdx+1 < len(cfg.Trace) && !cfg.Trace[traceIdx+1].At.After(t) {
			traceIdx++
		}
		return cfg.Trace[traceIdx].Price
	}

	deadline := cfg.Start.Add(cfg.Deadline)
	for t := cfg.Start; done < cfg.RunningTime; t = t.Add(cfg.Tick) {
		if !t.Before(deadline) {
			res.Completion = t.Sub(cfg.Start)
			return res, nil // Finished stays false
		}
		price := priceAt(t)
		switch {
		case waiting:
			// Blocked on an unavailable on-demand fallback.
			res.WaitedForOD += cfg.Tick
			if cfg.Platform.ODAvailable(fallback(t), t) {
				waiting = false
				onSpot = false
			} else if price <= cfg.ODPrice {
				// The spot market recovered first: resume there.
				waiting = false
				onSpot = true
			}
		case onSpot && price > cfg.ODPrice:
			// Revocation: roll back to the last checkpoint, restart on
			// the on-demand fallback (§6.2).
			res.Revocations++
			res.LostWork += sinceCkpt
			done = checkpointed
			sinceCkpt = 0
			ckptLeft = 0
			if cfg.Platform.ODAvailable(fallback(t), t) {
				onSpot = false
			} else {
				waiting = true
				res.WaitedForOD += cfg.Tick
			}
		default:
			// Making progress (on spot or on-demand). Checkpoint writes
			// block progress for their duration; only spot execution
			// checkpoints (on-demand is not revocable).
			if ckptLeft > 0 {
				ckptLeft -= cfg.Tick
				if ckptLeft <= 0 {
					checkpointed = done
					sinceCkpt = 0
				}
			} else {
				done += cfg.Tick
				sinceCkpt += cfg.Tick
				if onSpot && sinceCkpt >= cfg.CheckpointInterval && cfg.CheckpointTime > 0 && done < cfg.RunningTime {
					ckptLeft = cfg.CheckpointTime
				}
			}
		}
		res.Completion = t.Add(cfg.Tick).Sub(cfg.Start)
	}
	res.Finished = true
	return res, nil
}

// TrialStats summarizes repeated job runs at varied start times (the
// paper's "expected completion time for 100 trials where the job is
// started at a random time").
type TrialStats struct {
	Trials         int
	MeanCompletion time.Duration
	MaxCompletion  time.Duration
	MeanWaited     time.Duration
	Revocations    int
	Unfinished     int
}

// RunTrials runs the job at each start time and aggregates.
func RunTrials(cfg JobConfig, starts []time.Time) (TrialStats, error) {
	if len(starts) == 0 {
		return TrialStats{}, errors.New("spoton: no trial start times")
	}
	var st TrialStats
	var totalCompletion, totalWaited time.Duration
	for _, s := range starts {
		run := cfg
		run.Start = s
		res, err := RunJob(run)
		if err != nil {
			return TrialStats{}, err
		}
		st.Trials++
		totalCompletion += res.Completion
		totalWaited += res.WaitedForOD
		st.Revocations += res.Revocations
		if res.Completion > st.MaxCompletion {
			st.MaxCompletion = res.Completion
		}
		if !res.Finished {
			st.Unfinished++
		}
	}
	st.MeanCompletion = totalCompletion / time.Duration(st.Trials)
	st.MeanWaited = totalWaited / time.Duration(st.Trials)
	return st, nil
}

// OptimalCheckpointInterval returns the Young/Daly first-order optimum
// sqrt(2 * Tc * MTTR), clamped to [1 minute, the job length]. SpotOn uses
// it to pick τ for Eq 6.1.
func OptimalCheckpointInterval(checkpointTime, mttr, jobLength time.Duration) time.Duration {
	if checkpointTime <= 0 || mttr <= 0 {
		return jobLength
	}
	opt := time.Duration(math.Sqrt(2 * float64(checkpointTime) * float64(mttr)))
	if opt < time.Minute {
		opt = time.Minute
	}
	if jobLength > 0 && opt > jobLength {
		opt = jobLength
	}
	return opt
}
