package experiment

import (
	"math"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

var (
	mkt     = market.SpotID{Zone: "us-east-1e", Type: "d2.2xlarge", Product: market.ProductLinux}
	fallMkt = market.SpotID{Zone: "us-east-1e", Type: "m4.large", Product: market.ProductLinux}
	repMkt2 = market.SpotID{Zone: "us-east-1a", Type: "m4.large", Product: market.ProductLinux}
	t0      = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	odPrice = 1.0
)

// outages answers on-demand availability from scripted outage windows.
func outages(windows map[market.SpotID][][2]time.Time) ODAvailability {
	return func(m market.SpotID, t time.Time) bool {
		for _, o := range windows[m] {
			if !t.Before(o[0]) && t.Before(o[1]) {
				return false
			}
		}
		return true
	}
}

// trace builds a step-function price history from (offsetHours, price)
// pairs.
func trace(pairs ...float64) []store.PricePoint {
	var out []store.PricePoint
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, store.PricePoint{
			At:    t0.Add(time.Duration(pairs[i] * float64(time.Hour))),
			Price: pairs[i+1],
		})
	}
	return out
}

// onMkt replays mkt, bidding its on-demand price, over tr.
func onMkt(tr []store.PricePoint, od ODAvailability) replay {
	return replay{replicas: []Replica{{Market: mkt, ODPrice: odPrice, Trace: tr}}, od: od}
}

// vmDay replays SpotCheck's VM over the first day at a one-minute tick.
func vmDay(r replay) (vmResult, error) {
	return runVM(r, t0, t0.Add(24*time.Hour), time.Minute)
}

func TestValidation(t *testing.T) {
	bad := []replay{
		{}, // no replica
		{replicas: []Replica{{Market: mkt, ODPrice: 1}}, od: AlwaysAvailable},           // empty trace
		{replicas: []Replica{{Market: mkt, Trace: trace(0, 0.5)}}, od: AlwaysAvailable}, // zero od price
		{replicas: []Replica{{Market: mkt, ODPrice: 1, Trace: trace(0, 0.5)}}},          // nil availability
	}
	for i, r := range bad {
		if _, err := vmDay(r); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := runVM(onMkt(trace(0, 0.5), AlwaysAvailable), t0, t0, time.Minute); err == nil {
		t.Error("empty window accepted")
	}
}

func TestNoRevocationsFullAvailability(t *testing.T) {
	res, err := vmDay(onMkt(trace(0, 0.3, 24, 0.3), AlwaysAvailable))
	if err != nil {
		t.Fatal(err)
	}
	if res.Revocations != 0 {
		t.Errorf("revocations = %d, want 0", res.Revocations)
	}
	if math.Abs(res.AvailabilityPct-100) > 1e-9 {
		t.Errorf("availability = %v, want 100", res.AvailabilityPct)
	}
	if math.Abs(res.OnSpotFraction-1) > 1e-9 {
		t.Errorf("on-spot fraction = %v, want 1", res.OnSpotFraction)
	}
}

func TestRevocationWithAvailableFallback(t *testing.T) {
	// Price above od during hours [6, 8): one revocation, fallback works,
	// downtime is only the two migration pauses.
	res, err := vmDay(onMkt(trace(0, 0.3, 6, 1.5, 8, 0.3), AlwaysAvailable))
	if err != nil {
		t.Fatal(err)
	}
	if res.Revocations != 1 {
		t.Errorf("revocations = %d, want 1", res.Revocations)
	}
	if res.FailedFailovers != 0 {
		t.Errorf("failed failovers = %d, want 0", res.FailedFailovers)
	}
	if res.Downtime != 2*time.Second {
		t.Errorf("downtime = %v, want 2s (two migrations)", res.Downtime)
	}
	if res.AvailabilityPct < 99.99 {
		t.Errorf("availability = %v, want ~100", res.AvailabilityPct)
	}
	// ~2h of 24h on-demand: on-spot fraction ~22/24.
	if math.Abs(res.OnSpotFraction-22.0/24) > 0.01 {
		t.Errorf("on-spot fraction = %v, want ~%v", res.OnSpotFraction, 22.0/24)
	}
}

func TestRevocationDuringODOutage(t *testing.T) {
	// The paper's core finding: the spot spike [6, 8) coincides with an
	// on-demand outage [6, 7): the VM is down until the outage ends.
	od := outages(map[market.SpotID][][2]time.Time{
		mkt: {{t0.Add(6 * time.Hour), t0.Add(7 * time.Hour)}},
	})
	res, err := vmDay(onMkt(trace(0, 0.3, 6, 1.5, 8, 0.3), od))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedFailovers != 1 {
		t.Errorf("failed failovers = %d, want 1", res.FailedFailovers)
	}
	// Down for the ~1h od outage out of 24h: availability ~95.8%.
	wantAvail := 100 * (1 - 1.0/24)
	if math.Abs(res.AvailabilityPct-wantAvail) > 0.5 {
		t.Errorf("availability = %.2f, want ~%.2f", res.AvailabilityPct, wantAvail)
	}
}

func TestSpotLightFallbackRestoresAvailability(t *testing.T) {
	// Same coincident outage, but the fallback policy picks an
	// uncorrelated market that stays available.
	r := onMkt(trace(0, 0.3, 6, 1.5, 8, 0.3), outages(map[market.SpotID][][2]time.Time{
		mkt: {{t0.Add(6 * time.Hour), t0.Add(7 * time.Hour)}},
	}))
	r.fallback = func(time.Time) market.SpotID { return fallMkt }
	res, err := vmDay(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedFailovers != 0 {
		t.Errorf("failed failovers = %d, want 0 with uncorrelated fallback", res.FailedFailovers)
	}
	if res.AvailabilityPct < 99.99 {
		t.Errorf("availability = %v, want ~100", res.AvailabilityPct)
	}
}

func TestDownVMRecoversViaSpot(t *testing.T) {
	// OD stays out for the whole spike; the VM must come back when the
	// spot price drops below the bid.
	od := outages(map[market.SpotID][][2]time.Time{
		mkt: {{t0, t0.Add(24 * time.Hour)}},
	})
	res, err := vmDay(onMkt(trace(0, 0.3, 6, 1.5, 8, 0.3), od))
	if err != nil {
		t.Fatal(err)
	}
	// Down exactly during the 2-hour spike.
	wantAvail := 100 * (1 - 2.0/24)
	if math.Abs(res.AvailabilityPct-wantAvail) > 0.5 {
		t.Errorf("availability = %.2f, want ~%.2f", res.AvailabilityPct, wantAvail)
	}
	if res.OnSpotFraction < 0.9 {
		t.Errorf("on-spot fraction = %v, want >0.9", res.OnSpotFraction)
	}
}

func TestMeanHourlyCostNearSpot(t *testing.T) {
	// The paper's cost claim: mostly-spot operation keeps the mean
	// hourly cost near the spot price, far below on-demand.
	res, err := vmDay(onMkt(trace(0, 0.3, 6, 1.5, 8, 0.3), AlwaysAvailable)) // 2h above od out of 24h
	if err != nil {
		t.Fatal(err)
	}
	// 22h at $0.3 + 2h at $1.0 over 24h = $0.358/h.
	want := (22*0.3 + 2*1.0) / 24
	if math.Abs(res.MeanHourlyCost-want) > 0.02 {
		t.Errorf("mean hourly cost = %v, want ~%v", res.MeanHourlyCost, want)
	}
	if res.MeanHourlyCost >= odPrice {
		t.Errorf("mean hourly cost %v not below on-demand %v", res.MeanHourlyCost, odPrice)
	}
}

func TestMultipleRevocations(t *testing.T) {
	res, err := vmDay(onMkt(trace(
		0, 0.3, 2, 1.5, 3, 0.3, // spike 1
		10, 2.0, 11, 0.3, // spike 2
		20, 5.0, 21, 0.3, // spike 3
	), AlwaysAvailable))
	if err != nil {
		t.Fatal(err)
	}
	if res.Revocations != 3 {
		t.Errorf("revocations = %d, want 3", res.Revocations)
	}
}

func TestExpectedCostEq61(t *testing.T) {
	// Hand-computed example: Pk=0.5, T=1h, E[Zk]=2h, TL=0.25h, tau=1h,
	// Tc=0.1h, price=$0.2/h.
	// numerator   = (0.5*1 + 0.5*2) * 0.2         = 0.3
	// denominator = 0.5*1 + 0.5*(2-0.25) - 2*0.1  = 1.175
	got, err := ExpectedCostPerUnitTime(ExpectedCostParams{
		SpotPrice:              0.2,
		RevocationProb:         0.5,
		ExpectedRevocationTime: 2 * time.Hour,
		RemainingTime:          time.Hour,
		CheckpointTime:         6 * time.Minute,
		CheckpointInterval:     time.Hour,
		LostWork:               15 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3 / 1.175
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Eq 6.1 = %v, want %v", got, want)
	}
}

func TestExpectedCostNoRevocationReducesToSpotPrice(t *testing.T) {
	// With Pk=0 and no checkpointing overhead the cost per unit time is
	// exactly the spot price.
	got, err := ExpectedCostPerUnitTime(ExpectedCostParams{
		SpotPrice:          0.25,
		RemainingTime:      2 * time.Hour,
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("cost = %v, want 0.25", got)
	}
}

func TestExpectedCostErrors(t *testing.T) {
	if _, err := ExpectedCostPerUnitTime(ExpectedCostParams{CheckpointInterval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := ExpectedCostPerUnitTime(ExpectedCostParams{CheckpointInterval: time.Hour, RevocationProb: 1.5}); err == nil {
		t.Error("probability > 1 accepted")
	}
	// Overheads swallowing the work must error, not return garbage.
	_, err := ExpectedCostPerUnitTime(ExpectedCostParams{
		SpotPrice:              1,
		RevocationProb:         0.99,
		ExpectedRevocationTime: time.Minute,
		RemainingTime:          time.Minute,
		CheckpointTime:         time.Hour,
		CheckpointInterval:     time.Minute,
		LostWork:               time.Hour,
	})
	if err == nil {
		t.Error("non-positive denominator accepted")
	}
}

func TestJobWithoutRevocations(t *testing.T) {
	res, err := runJob(onMkt(trace(0, 0.3, 48, 0.3), AlwaysAvailable), t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("job did not finish")
	}
	if res.Revocations != 0 {
		t.Errorf("revocations = %d, want 0", res.Revocations)
	}
	// 1 hour of work + 3 checkpoints (at 15, 30, 45 min of work; the
	// final one at 60 is skipped) x 6 min = 78 minutes.
	want := 78 * time.Minute
	if res.Completion != want {
		t.Errorf("completion = %v, want %v", res.Completion, want)
	}
}

// TestSpotOnJobHoursWithoutRevocations holds Fig 6.2's job to the paper's
// arithmetic from any start: a revocation-free hour of work with three
// six-minute checkpoints takes 1 h + 3 x 6 min = 1.30 h. Replayed at a
// study's 5-minute tick it read 1.50 h, because a checkpoint ended only
// on a whole tick.
func TestSpotOnJobHoursWithoutRevocations(t *testing.T) {
	r := onMkt(trace(0, 0.3, 48, 0.3), AlwaysAvailable)
	starts := []time.Time{t0, t0.Add(5 * time.Minute), t0.Add(37 * time.Minute)}
	st, err := runTrials(r, starts, runJob)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanCompletion != 78*time.Minute || st.MaxCompletion != 78*time.Minute {
		t.Errorf("mean/max completion = %v/%v, want 1h18m (1.30 h)", st.MeanCompletion, st.MaxCompletion)
	}
}

func TestJobRevocationLosesUncheckpointedWork(t *testing.T) {
	// Spike at +20 min: the job has checkpointed at 15 min of work, so it
	// loses the work since then and restarts on-demand.
	res, err := runJob(onMkt(trace(0, 0.3, 20.0/60, 1.5, 1, 0.3), AlwaysAvailable), t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("job did not finish")
	}
	if res.Revocations != 1 {
		t.Errorf("revocations = %d, want 1", res.Revocations)
	}
	if res.LostWork == 0 {
		t.Error("no lost work recorded at revocation")
	}
	if res.WaitedForOD != 0 {
		t.Errorf("waited = %v, want 0 (od available)", res.WaitedForOD)
	}
	// Completion exceeds the no-revocation runtime.
	if res.Completion <= 78*time.Minute {
		t.Errorf("completion = %v, want > 78m", res.Completion)
	}
}

func TestJobWaitsWhenFallbackUnavailable(t *testing.T) {
	r := onMkt(trace(0, 0.3, 0.5, 1.5, 3, 0.3), outages(map[market.SpotID][][2]time.Time{ // spike from +30m to +3h
		mkt: {{t0, t0.Add(2 * time.Hour)}}, // od out for 2 hours
	}))
	res, err := runJob(r, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("job did not finish")
	}
	if res.WaitedForOD == 0 {
		t.Error("job never waited despite od outage")
	}
	// It must wait ~90 minutes (od recovers at +2h, spike ends at +3h).
	if res.WaitedForOD < 60*time.Minute {
		t.Errorf("waited = %v, want >= 1h", res.WaitedForOD)
	}
}

func TestSpotLightFallbackAvoidsWait(t *testing.T) {
	r := onMkt(trace(0, 0.3, 0.5, 1.5, 3, 0.3), outages(map[market.SpotID][][2]time.Time{
		mkt: {{t0, t0.Add(2 * time.Hour)}},
	}))
	r.fallback = func(time.Time) market.SpotID { return fallMkt }
	res, err := runJob(r, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WaitedForOD != 0 {
		t.Errorf("waited = %v with uncorrelated fallback, want 0", res.WaitedForOD)
	}
}

func TestJobDeadline(t *testing.T) {
	// Price permanently above od and od permanently out: cannot finish.
	r := onMkt(trace(0, 5), outages(map[market.SpotID][][2]time.Time{
		mkt: {{t0, t0.Add(1000 * time.Hour)}},
	}))
	res, err := runJob(r, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished {
		t.Error("unfinishable job reported finished")
	}
	if res.Completion < jobDeadline {
		t.Errorf("completion = %v, want >= deadline %v", res.Completion, jobDeadline)
	}
}

func TestJobValidation(t *testing.T) {
	bad := []replay{
		{},
		{replicas: []Replica{{Market: mkt, Trace: trace(0, 0.3)}}},
		{replicas: []Replica{{Market: mkt, Trace: trace(0, 0.3)}}, od: AlwaysAvailable},
		{replicas: []Replica{{Market: mkt, ODPrice: 1, Trace: trace(0, 0.3)}}},
	}
	for i, r := range bad {
		if _, err := runJob(r, t0); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRunTrials(t *testing.T) {
	r := onMkt(trace(0, 0.3, 6, 1.5, 7, 0.3, 48, 0.3), AlwaysAvailable)
	starts := []time.Time{t0, t0.Add(5 * time.Hour), t0.Add(10 * time.Hour)}
	st, err := runTrials(r, starts, runJob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != 3 {
		t.Errorf("trials = %d, want 3", st.Trials)
	}
	if st.MeanCompletion < 78*time.Minute {
		t.Errorf("mean completion = %v, want >= 78m", st.MeanCompletion)
	}
	if st.MaxCompletion < st.MeanCompletion {
		t.Errorf("max %v < mean %v", st.MaxCompletion, st.MeanCompletion)
	}
	if _, err := runTrials(r, nil, runJob); err == nil {
		t.Error("empty starts accepted")
	}
}

func TestOptimalCheckpointInterval(t *testing.T) {
	// sqrt(2 * 6m * 12h) = sqrt(2*360*43200) s = ~93.3 min.
	got := OptimalCheckpointInterval(6*time.Minute, 12*time.Hour, 24*time.Hour)
	want := time.Duration(math.Sqrt(2 * float64(6*time.Minute) * float64(12*time.Hour)))
	if got != want {
		t.Errorf("interval = %v, want %v", got, want)
	}
	// Clamps.
	if got := OptimalCheckpointInterval(6*time.Minute, 1000*time.Hour, time.Hour); got != time.Hour {
		t.Errorf("upper clamp = %v, want 1h", got)
	}
	if got := OptimalCheckpointInterval(time.Nanosecond, time.Microsecond, time.Hour); got != time.Minute {
		t.Errorf("lower clamp = %v, want 1m", got)
	}
	if got := OptimalCheckpointInterval(0, time.Hour, time.Hour); got != time.Hour {
		t.Errorf("zero checkpoint time = %v, want job length", got)
	}
}

// twoReplicas replays mkt and repMkt2, both bidding $1, over the traces.
func twoReplicas(traceA, traceB []float64) replay {
	return replay{
		replicas: []Replica{
			{Market: mkt, ODPrice: 1.0, Trace: trace(traceA...)},
			{Market: repMkt2, ODPrice: 1.0, Trace: trace(traceB...)},
		},
		od: AlwaysAvailable,
	}
}

func TestReplicatedJobCompletesOnFirstReplica(t *testing.T) {
	res, err := runReplicatedJob(twoReplicas([]float64{0, 0.3, 48, 0.3}, []float64{0, 0.2, 48, 0.2}), t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("job did not finish")
	}
	// No checkpointing overhead: exactly the running time.
	if res.Completion != time.Hour {
		t.Errorf("completion = %v, want 1h", res.Completion)
	}
	if res.Revocations != 0 || res.WaitedForOD != 0 {
		t.Errorf("restarts/waits = %d/%v, want 0/0", res.Revocations, res.WaitedForOD)
	}
	// Both replicas paid for their hour: ~0.3 + 0.2 dollars.
	if res.SpotCost < 0.45 || res.SpotCost > 0.55 {
		t.Errorf("spot cost = %v, want ~0.5 (both replicas billed)", res.SpotCost)
	}
}

func TestReplicatedJobSurvivesOneRevocation(t *testing.T) {
	// Replica A revoked at +30m; replica B survives and finishes.
	res, err := runReplicatedJob(twoReplicas(
		[]float64{0, 0.3, 0.5, 1.5, 48, 1.5},
		[]float64{0, 0.2, 48, 0.2},
	), t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || res.Revocations != 0 {
		t.Errorf("finished=%v restarts=%d, want survive via replica B", res.Finished, res.Revocations)
	}
	if res.Completion != time.Hour {
		t.Errorf("completion = %v, want 1h", res.Completion)
	}
}

func TestReplicatedJobTotalLossRestartsOnOD(t *testing.T) {
	// Both replicas revoked at +30m; od available: restart from scratch.
	res, err := runReplicatedJob(twoReplicas(
		[]float64{0, 0.3, 0.5, 1.5, 48, 1.5},
		[]float64{0, 0.2, 0.5, 1.4, 48, 1.4},
	), t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("job did not finish")
	}
	if res.Revocations != 1 {
		t.Errorf("restarts = %d, want 1", res.Revocations)
	}
	// 30 minutes of lost spot work + a full hour on-demand.
	if res.Completion < 90*time.Minute {
		t.Errorf("completion = %v, want >= 1.5h (work lost at total loss)", res.Completion)
	}
}

func TestReplicatedJobWaitsDuringODOutage(t *testing.T) {
	r := twoReplicas(
		[]float64{0, 0.3, 0.5, 1.5, 48, 1.5},
		[]float64{0, 0.2, 0.5, 1.4, 48, 1.4},
	)
	r.od = outages(map[market.SpotID][][2]time.Time{
		mkt: {{t0, t0.Add(3 * time.Hour)}},
	})
	res, err := runReplicatedJob(r, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("job did not finish")
	}
	if res.WaitedForOD < 2*time.Hour {
		t.Errorf("waited = %v, want >= 2h (od outage until +3h)", res.WaitedForOD)
	}
	// With an uncorrelated fallback the wait disappears.
	r.fallback = func(time.Time) market.SpotID { return repMkt2 }
	res, err = runReplicatedJob(r, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WaitedForOD != 0 {
		t.Errorf("waited = %v with uncorrelated fallback, want 0", res.WaitedForOD)
	}
}

func TestReplicatedJobDeadline(t *testing.T) {
	r := twoReplicas([]float64{0, 5}, []float64{0, 5}) // both dead at start
	r.od = outages(map[market.SpotID][][2]time.Time{
		mkt:     {{t0, t0.Add(1000 * time.Hour)}},
		repMkt2: {{t0, t0.Add(1000 * time.Hour)}},
	})
	res, err := runReplicatedJob(r, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished {
		t.Error("unfinishable job reported finished")
	}
}

func TestRunReplicatedTrials(t *testing.T) {
	r := twoReplicas([]float64{0, 0.3, 48, 0.3}, []float64{0, 0.2, 48, 0.2})
	starts := []time.Time{t0, t0.Add(2 * time.Hour), t0.Add(5 * time.Hour)}
	st, err := RunReplicatedTrials(r.replicas, r.od, starts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != 3 || st.Unfinished != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanCompletion != time.Hour {
		t.Errorf("mean completion = %v, want 1h", st.MeanCompletion)
	}
	if st.MeanSpotCost <= 0 {
		t.Errorf("mean spot cost = %v, want positive", st.MeanSpotCost)
	}
	if _, err := RunReplicatedTrials(r.replicas, r.od, nil); err == nil {
		t.Error("empty starts accepted")
	}
}

func TestReplicatedJobValidation(t *testing.T) {
	bad := []replay{
		{},
		{replicas: []Replica{{Market: mkt, ODPrice: 1}}, od: AlwaysAvailable},           // empty trace
		{replicas: []Replica{{Market: mkt, Trace: trace(0, 0.3)}}, od: AlwaysAvailable}, // zero od price
		{replicas: []Replica{{Market: mkt, ODPrice: 1, Trace: trace(0, 0.3)}}},          // nil availability
		{replicas: []Replica{ // a bad second replica
			{Market: mkt, ODPrice: 1, Trace: trace(0, 0.3)},
			{Market: repMkt2, ODPrice: 1},
		}, od: AlwaysAvailable},
	}
	for i, r := range bad {
		if _, err := runReplicatedJob(r, t0); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
