package experiment_test

import (
	"fmt"
	"time"

	"spotlight/internal/experiment"
)

func ExampleExpectedCostPerUnitTime() {
	// Eq 6.1 for a 1-hour job on a market with a 50% revocation chance,
	// 2-hour expected time to revocation, 6-minute checkpoints every
	// hour, and a $0.20/hour spot price.
	cost, err := experiment.ExpectedCostPerUnitTime(experiment.ExpectedCostParams{
		SpotPrice:              0.20,
		RevocationProb:         0.5,
		ExpectedRevocationTime: 2 * time.Hour,
		RemainingTime:          time.Hour,
		CheckpointTime:         6 * time.Minute,
		CheckpointInterval:     time.Hour,
		LostWork:               15 * time.Minute,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("$%.4f per useful hour\n", cost)
	// Output:
	// $0.2553 per useful hour
}

func ExampleOptimalCheckpointInterval() {
	tau := experiment.OptimalCheckpointInterval(6*time.Minute, 12*time.Hour, 24*time.Hour)
	fmt.Println(tau.Round(time.Minute))
	// Output:
	// 1h33m0s
}
