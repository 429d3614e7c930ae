// Batch-scheduler example: a SpotOn-style service that places checkpointed
// batch jobs on the spot market with the lowest expected cost (the
// paper's Eq 6.1), then measures real completion times with and without
// SpotLight's availability data (the Fig 6.2 effect).
//
// The scheduler consumes SpotLight the way an external service would:
// over HTTP through the Go client SDK, fetching every candidate's price
// history in one POST /v2/query batch instead of hand-rolled URLs.
//
//	go run ./examples/batch-scheduler
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sort"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	st, err := experiment.Run(experiment.Config{Seed: 33, Days: 7})
	if err != nil {
		return err
	}
	from, to := st.Window()

	apiSrv := query.NewAPI(query.NewEngine(st.DB, st.Cat), func() time.Time { return to })
	srv := httptest.NewServer(apiSrv.Handler())
	defer srv.Close()
	c, err := client.New(srv.URL, nil)
	if err != nil {
		return err
	}

	// Step 1: fetch every candidate's price series in one batch round
	// trip, then rank by Eq 6.1's expected cost for a 1-hour job with a
	// 6-minute checkpoint, estimating revocation statistics from
	// SpotLight's spike log.
	candidates := experiment.CaseStudyMarkets()
	window := api.Between(from, to)
	queries := make([]api.Query, len(candidates))
	for i, id := range candidates {
		queries[i] = api.Query{Kind: api.KindPrices, Market: id.String(), Window: window}
	}
	resp, err := c.Batch(context.Background(), queries...)
	if err != nil {
		return err
	}

	fmt.Println("Eq 6.1 expected cost per useful hour (1h job, 6m checkpoints):")
	type scored struct {
		id   market.SpotID
		cost float64
		mttr time.Duration
	}
	var ranked []scored
	for i, id := range candidates {
		if resp.Results[i].Error != nil {
			return fmt.Errorf("prices query for %s: %v", id, resp.Results[i].Error)
		}
		pts := resp.Results[i].Prices
		if len(pts) == 0 {
			continue
		}
		od, err := st.Cat.SpotODPrice(id)
		if err != nil {
			return err
		}
		mean := 0.0
		for _, p := range pts {
			mean += p.Price
		}
		mean /= float64(len(pts))
		crossings := len(st.DB.SpikesFor(id, from, to))
		mttr := to.Sub(from) / time.Duration(crossings+1)
		tau := experiment.OptimalCheckpointInterval(6*time.Minute, mttr, time.Hour)
		pRevoke := 1 - float64(mttr)/(float64(mttr)+float64(time.Hour))
		cost, err := experiment.ExpectedCostPerUnitTime(experiment.ExpectedCostParams{
			SpotPrice:              mean,
			RevocationProb:         pRevoke,
			ExpectedRevocationTime: mttr / 2,
			RemainingTime:          time.Hour,
			CheckpointTime:         6 * time.Minute,
			CheckpointInterval:     tau,
			LostWork:               tau / 2,
		})
		if err != nil {
			continue
		}
		ranked = append(ranked, scored{id: id, cost: cost, mttr: mttr})
		fmt.Printf("  %-42s $%.4f/useful-hour (od $%.4f, mttr %v)\n",
			id, cost, od, mttr.Round(time.Hour))
	}
	if len(ranked) == 0 {
		return fmt.Errorf("no candidate markets had price data")
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].cost < ranked[j].cost })
	fmt.Printf("\nEq 6.1 picks %s\n\n", ranked[0].id)

	// Step 2: run the actual jobs and show what the paper's Fig 6.2
	// shows — the naive fallback pays for the availability assumption,
	// SpotLight does not.
	rows, err := st.RunSpotOn(50)
	if err != nil {
		return err
	}
	fmt.Println("mean completion of a 1-hour job (50 trials per market):")
	for _, r := range rows {
		fmt.Printf("  %-42s naive %.2fh  spotlight %.2fh  ideal %.2fh\n",
			r.Market, r.SpotOnHours, r.SpotLightHours, r.IdealHours)
	}

	// Step 3: SpotOn's other fault-tolerance mechanism — replication
	// across two volatile markets instead of checkpointing (§6.2). No
	// checkpoint overhead, but every replica's spot hours are paid.
	fmt.Println("\nreplication instead of checkpointing (2 replicas, 20 trials):")
	repA, repB := ranked[0].id, ranked[len(ranked)-1].id
	var replicas []experiment.Replica
	for _, id := range []market.SpotID{repA, repB} {
		od, err := st.Cat.SpotODPrice(id)
		if err != nil {
			return err
		}
		replicas = append(replicas, experiment.Replica{
			Market: id, ODPrice: od, Trace: st.DB.Prices(id),
		})
	}
	starts := make([]time.Time, 20)
	for i := range starts {
		starts[i] = from.Add(time.Duration(i) * 6 * time.Hour)
	}
	stats, err := experiment.RunReplicatedTrials(replicas, experiment.AlwaysAvailable, starts)
	if err != nil {
		return err
	}
	fmt.Printf("  replicas %s + %s\n", repA, repB)
	fmt.Printf("  mean completion %.2fh (no checkpoint overhead), mean spot cost $%.3f/run, %d restarts\n",
		stats.MeanCompletion.Hours(), stats.MeanSpotCost, stats.Revocations)
	return nil
}
