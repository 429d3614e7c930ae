package experiment

import (
	"errors"
	"math"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// The Chapter 6 case studies replay a study's published price traces:
// SpotCheck's nested VM (§6.1) and SpotOn's checkpointed and replicated
// batch jobs (§6.2). Every replayed spot server bids its market's
// on-demand price, so it is revoked when the spot price rises above that,
// and every replay then falls back to an on-demand server. SpotCheck and
// SpotOn assume that server is always obtainable; the paper shows the
// assumption fails exactly when it matters, because revocations coincide
// with on-demand outages, and that a fallback market chosen with
// SpotLight's data restores what the assumption promised.

// ODAvailability reports whether an on-demand instance of m's type was
// obtainable at instant t.
type ODAvailability func(m market.SpotID, t time.Time) bool

// AlwaysAvailable is the assumption the paper debunks: an on-demand
// fallback that never fails.
func AlwaysAvailable(market.SpotID, time.Time) bool { return true }

// fallbackPolicy picks the on-demand market a revoked server moves to at
// instant t.
type fallbackPolicy func(t time.Time) market.SpotID

// Replica is one spot server's market: its ID, its on-demand price (the
// server's bid) and its published price history, a step function.
type Replica struct {
	Market  market.SpotID
	ODPrice float64
	Trace   []store.PricePoint
}

// replay is what every case-study replay shares: the spot servers, the
// on-demand tier's obtainability and the fallback policy.
type replay struct {
	// replicas host the workload: SpotCheck's VM and a checkpointed job
	// run on replicas[0], a replicated job on all of them at once.
	replicas []Replica
	od       ODAvailability
	// fallback picks the on-demand market; nil means replicas[0]'s own,
	// the paper's baseline.
	fallback fallbackPolicy
}

func (r replay) validate() error {
	if len(r.replicas) == 0 {
		return errors.New("experiment: no spot replica")
	}
	for _, rep := range r.replicas {
		if len(rep.Trace) == 0 {
			return errors.New("experiment: empty price trace")
		}
		if rep.ODPrice <= 0 {
			return errors.New("experiment: non-positive on-demand price")
		}
	}
	if r.od == nil {
		return errors.New("experiment: nil on-demand availability")
	}
	return nil
}

// fallbackUp reports whether the fallback market's on-demand tier is
// obtainable at instant t.
func (r replay) fallbackUp(t time.Time) bool {
	target := r.replicas[0].Market
	if r.fallback != nil {
		target = r.fallback(t)
	}
	return r.od(target, t)
}

// priceCursor reads a price trace at non-decreasing instants.
type priceCursor struct {
	trace []store.PricePoint
	i     int
}

func (c *priceCursor) at(t time.Time) float64 {
	for c.i+1 < len(c.trace) && !c.trace[c.i+1].At.After(t) {
		c.i++
	}
	return c.trace[c.i].Price
}

// migrationPause is the nested VM pause per migration: the bounded final
// memory copy (§6.1).
const migrationPause = time.Second

// vmState is where SpotCheck's nested VM currently runs.
type vmState int

const (
	onSpot vmState = iota + 1
	onDemand
	down
)

// vmResult is the outcome of one SpotCheck replay.
type vmResult struct {
	// AvailabilityPct is uptime as a percentage of the window.
	AvailabilityPct float64
	Revocations     int
	// FailedFailovers counts revocations that found the fallback
	// on-demand market unobtainable: the paper's key observation.
	FailedFailovers int
	Downtime        time.Duration
	// OnSpotFraction is the share of the window served from spot.
	OnSpotFraction float64
	// MeanHourlyCost is the time-weighted price paid per hour: the spot
	// price on spot, the on-demand price while failed over. The paper's
	// cost claim ("the availability of on-demand servers for a cost near
	// that of spot servers") holds when it sits well below on-demand.
	MeanHourlyCost float64
}

// runVM replays SpotCheck's nested VM on replicas[0] over [from, to) in
// steps of tick: at a revocation it live-migrates to the on-demand
// fallback, and back to spot once the price falls to the bid; when the
// fallback is unobtainable the VM is down until either tier recovers.
func runVM(r replay, from, to time.Time, tick time.Duration) (vmResult, error) {
	if err := r.validate(); err != nil {
		return vmResult{}, err
	}
	if !to.After(from) {
		return vmResult{}, errors.New("experiment: empty window")
	}
	var (
		res      vmResult
		vm       = r.replicas[0]
		prices   = priceCursor{trace: vm.Trace}
		state    = onSpot
		spotTime time.Duration
		cost     float64
		window   = to.Sub(from)
	)
	for t := from; t.Before(to); t = t.Add(tick) {
		price := prices.at(t)
		switch state {
		case onSpot:
			spotTime += tick
			cost += price * tick.Hours()
			if price > vm.ODPrice {
				res.Revocations++
				if r.fallbackUp(t) {
					res.Downtime += migrationPause
					state = onDemand
				} else {
					res.FailedFailovers++
					state = down
					res.Downtime += tick
				}
			}
		case onDemand:
			cost += vm.ODPrice * tick.Hours()
			if price <= vm.ODPrice {
				res.Downtime += migrationPause
				state = onSpot
				spotTime += tick
			}
		case down:
			switch {
			case price <= vm.ODPrice:
				// The spot tier recovered first: resume there.
				res.Downtime += migrationPause
				state = onSpot
				spotTime += tick
			case r.fallbackUp(t):
				res.Downtime += migrationPause
				state = onDemand
			default:
				res.Downtime += tick
			}
		}
	}
	res.Downtime = min(res.Downtime, window)
	res.AvailabilityPct = 100 * (1 - float64(res.Downtime)/float64(window))
	res.OnSpotFraction = float64(spotTime) / float64(window)
	res.MeanHourlyCost = cost / window.Hours()
	return res, nil
}

// The SpotOn job of Fig 6.2: an hour of useful work with an 8 GB
// footprint, whose checkpoint takes about six minutes, taken every
// quarter hour. A replay that has not finished by jobDeadline stops.
const (
	jobLength          = time.Hour
	checkpointTime     = 6 * time.Minute
	checkpointInterval = 15 * time.Minute
	jobDeadline        = 10*jobLength + 24*time.Hour
	// jobTick is a job replay's step. A checkpoint ends only on a whole
	// step, so the step divides the checkpoint time.
	jobTick = time.Minute
)

// jobResult is the outcome of one SpotOn job replay.
type jobResult struct {
	// Completion is wall-clock from start to finish, the Fig 6.2 metric.
	Completion time.Duration
	// Revocations counts the times the job lost its spot servers: a
	// checkpointed job's one server, or every replica at once.
	Revocations int
	// WaitedForOD is time spent waiting for an unobtainable on-demand
	// fallback: zero under the paper's (false) assumption.
	WaitedForOD time.Duration
	// LostWork is the work since the last checkpoint that revocations
	// rolled back.
	LostWork time.Duration
	// SpotCost is the dollars a replicated job paid for replica spot
	// time; it trades money for resilience.
	SpotCost float64
	Finished bool
}

// runJob replays SpotOn's checkpointed job on replicas[0] from start. A
// revocation rolls the job back to its last checkpoint
// and restarts it on the on-demand fallback, for good; while the fallback
// is unobtainable the job waits, and takes whichever tier recovers first,
// on-demand before spot.
func runJob(r replay, start time.Time) (jobResult, error) {
	if err := r.validate(); err != nil {
		return jobResult{}, err
	}
	var (
		res          jobResult
		bid          = r.replicas[0].ODPrice
		prices       = priceCursor{trace: r.replicas[0].Trace}
		done         time.Duration // completed useful work
		checkpointed time.Duration // work safely persisted
		sinceCkpt    time.Duration // work since the last checkpoint
		ckptLeft     time.Duration // remaining current checkpoint write
		spot         = true
		waiting      = false
		deadline     = start.Add(jobDeadline)
	)
	for t := start; done < jobLength; t = t.Add(jobTick) {
		if !t.Before(deadline) {
			res.Completion = t.Sub(start)
			return res, nil // Finished stays false
		}
		price := prices.at(t)
		switch {
		case waiting:
			res.WaitedForOD += jobTick
			if r.fallbackUp(t) {
				waiting = false
				spot = false
			} else if price <= bid {
				waiting = false
				spot = true
			}
		case spot && price > bid:
			res.Revocations++
			res.LostWork += sinceCkpt
			done = checkpointed
			sinceCkpt = 0
			ckptLeft = 0
			if r.fallbackUp(t) {
				spot = false
			} else {
				waiting = true
				res.WaitedForOD += jobTick
			}
		default:
			// Making progress on spot or on-demand. A checkpoint write
			// blocks progress for its duration; only spot execution
			// checkpoints, since on-demand is not revocable.
			if ckptLeft > 0 {
				ckptLeft -= jobTick
				if ckptLeft <= 0 {
					checkpointed = done
					sinceCkpt = 0
				}
			} else {
				done += jobTick
				sinceCkpt += jobTick
				if spot && sinceCkpt >= checkpointInterval && done < jobLength {
					ckptLeft = checkpointTime
				}
			}
		}
		res.Completion = t.Add(jobTick).Sub(start)
	}
	res.Finished = true
	return res, nil
}

// runReplicatedJob replays SpotOn's replicated job from start: it runs on
// every replica at once and completes when the first one finishes. Only
// when every replica is revoked does it restart from scratch on the
// on-demand fallback, keeping no checkpoint, and wait while that is
// unobtainable.
func runReplicatedJob(r replay, start time.Time) (jobResult, error) {
	if err := r.validate(); err != nil {
		return jobResult{}, err
	}
	type replicaRun struct {
		prices  priceCursor
		done    time.Duration
		revoked bool
	}
	reps := make([]replicaRun, len(r.replicas))
	for i, rep := range r.replicas {
		reps[i].prices.trace = rep.Trace
	}
	var (
		res      jobResult
		onOD     bool
		odDone   time.Duration
		waiting  bool
		deadline = start.Add(jobDeadline)
		tickH    = jobTick.Hours()
	)
	for t := start; ; t = t.Add(jobTick) {
		if !t.Before(deadline) {
			res.Completion = t.Sub(start)
			return res, nil
		}
		switch {
		case waiting:
			res.WaitedForOD += jobTick
			if r.fallbackUp(t) {
				waiting = false
				onOD = true
			}
		case onOD:
			odDone += jobTick
			if odDone >= jobLength {
				res.Finished = true
				res.Completion = t.Add(jobTick).Sub(start)
				return res, nil
			}
		default:
			anyAlive := false
			for i := range reps {
				rep := &reps[i]
				if rep.revoked {
					continue
				}
				price := rep.prices.at(t)
				if price > r.replicas[i].ODPrice {
					rep.revoked = true
					continue
				}
				anyAlive = true
				rep.done += jobTick
				res.SpotCost += price * tickH
				if rep.done >= jobLength {
					res.Finished = true
					res.Completion = t.Add(jobTick).Sub(start)
					return res, nil
				}
			}
			if !anyAlive {
				res.Revocations++
				odDone = 0
				if r.fallbackUp(t) {
					onOD = true
				} else {
					waiting = true
					res.WaitedForOD += jobTick
				}
			}
		}
	}
}

// TrialStats aggregates a job replayed from several start times (the
// paper's "expected completion time for 100 trials where the job is
// started at a random time").
type TrialStats struct {
	Trials         int
	MeanCompletion time.Duration
	MaxCompletion  time.Duration
	MeanSpotCost   float64
	Revocations    int
	Unfinished     int
}

// runTrials replays the job with run from each start time and aggregates.
func runTrials(r replay, starts []time.Time, run func(replay, time.Time) (jobResult, error)) (TrialStats, error) {
	if len(starts) == 0 {
		return TrialStats{}, errors.New("experiment: no trial start times")
	}
	var st TrialStats
	var totalCompletion time.Duration
	for _, s := range starts {
		res, err := run(r, s)
		if err != nil {
			return TrialStats{}, err
		}
		st.Trials++
		totalCompletion += res.Completion
		st.MeanSpotCost += res.SpotCost
		st.Revocations += res.Revocations
		st.MaxCompletion = max(st.MaxCompletion, res.Completion)
		if !res.Finished {
			st.Unfinished++
		}
	}
	st.MeanCompletion = totalCompletion / time.Duration(st.Trials)
	st.MeanSpotCost /= float64(st.Trials)
	return st, nil
}

// RunReplicatedTrials replays SpotOn's replicated job (§6.2), an hour of
// work on every replica at once, from each start time, restarting on the
// first replica's on-demand tier when every replica is revoked.
func RunReplicatedTrials(replicas []Replica, od ODAvailability, starts []time.Time) (TrialStats, error) {
	return runTrials(replay{replicas: replicas, od: od}, starts, runReplicatedJob)
}

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

// ExpectedCostPerUnitTime evaluates Eq 6.1, SpotOn's market choice: the
// expected cost per unit of useful work on spot market k when
// checkpointing,
//
//	[(1-Pk)*T + Pk*E(Zk)] * spot-price
//	-----------------------------------------------------
//	(1-Pk)*T + Pk*(E(Zk)-TL) - (E(Zk)/τ)*Tc
//
// It returns an error when the parameters make the useful-work denominator
// non-positive (checkpointing overhead swallows all progress).
func ExpectedCostPerUnitTime(p ExpectedCostParams) (float64, error) {
	if p.CheckpointInterval <= 0 {
		return 0, errors.New("experiment: non-positive checkpoint interval")
	}
	if p.RevocationProb < 0 || p.RevocationProb > 1 {
		return 0, errors.New("experiment: revocation probability outside [0,1]")
	}
	tHours := p.RemainingTime.Hours()
	zHours := p.ExpectedRevocationTime.Hours()
	numer := ((1-p.RevocationProb)*tHours + p.RevocationProb*zHours) * p.SpotPrice
	denom := (1-p.RevocationProb)*tHours +
		p.RevocationProb*(zHours-p.LostWork.Hours()) -
		(zHours/p.CheckpointInterval.Hours())*p.CheckpointTime.Hours()
	if denom <= 0 {
		return 0, errors.New("experiment: checkpoint overhead exceeds useful work")
	}
	return numer / denom, nil
}

// OptimalCheckpointInterval returns the Young/Daly first-order optimum
// sqrt(2 * Tc * MTTR), clamped to [1 minute, the job length]. SpotOn uses
// it to pick τ for Eq 6.1.
func OptimalCheckpointInterval(checkpointTime, mttr, length time.Duration) time.Duration {
	if checkpointTime <= 0 || mttr <= 0 {
		return length
	}
	opt := time.Duration(math.Sqrt(2 * float64(checkpointTime) * float64(mttr)))
	if opt < time.Minute {
		opt = time.Minute
	}
	if length > 0 && opt > length {
		opt = length
	}
	return opt
}
