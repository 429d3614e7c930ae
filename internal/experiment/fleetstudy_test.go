package experiment

import (
	"strings"
	"testing"
	"time"

	"spotlight/internal/fleet"
	"spotlight/internal/market"
)

func TestRunFleetComparison(t *testing.T) {
	rows, err := RunFleetComparison(FleetStudyConfig{
		Seed:       11,
		Tick:       15 * time.Minute,
		WarmupDays: 1,
		Days:       1,
		Target:     2,
		Regions:    []market.Region{"us-east-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want the two default policies", len(rows))
	}
	if rows[0].Policy != "threshold" || rows[1].Policy != "feedback-control" {
		t.Fatalf("policies = [%s %s], want [threshold feedback-control]", rows[0].Policy, rows[1].Policy)
	}
	for _, r := range rows {
		if r.Cost <= 0 {
			t.Errorf("%s: cost = %g, want > 0 (the fleet ran for a day)", r.Policy, r.Cost)
		}
		if r.AvailabilityPcnt < 0 || r.AvailabilityPcnt > 100 {
			t.Errorf("%s: availability = %g, want within [0, 100]", r.Policy, r.AvailabilityPcnt)
		}
		if r.SpotLaunches+r.Fallbacks == 0 {
			t.Errorf("%s: no placements at all: %+v", r.Policy, r)
		}
	}

	var sb strings.Builder
	if err := WriteFleetComparison(&sb, rows); err != nil {
		t.Fatal(err)
	}
	table := sb.String()
	for _, want := range []string{"policy", "cost ($)", "threshold", "feedback-control"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestFleetComparisonPinned holds a seeded head-to-head to the table it
// rendered when every placement asked the advisor afresh: ranking once per
// Step moves no placement, cost or revocation.
func TestFleetComparisonPinned(t *testing.T) {
	rows, err := RunFleetComparison(FleetStudyConfig{
		Seed:       42,
		Regions:    []market.Region{"us-east-1"},
		WarmupDays: 1,
		Days:       1,
		Target:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFleetComparison(&sb, rows); err != nil {
		t.Fatal(err)
	}
	const want = `policy            cost ($)  availability (%)  migrations  repatriations  od fallbacks  revocations  spot launches
threshold         4.27      100.00            2           0              0             0            4
feedback-control  4.27      100.00            2           0              0             0            4
`
	if got := sb.String(); got != want {
		t.Errorf("head-to-head =\n%s\nwant\n%s", got, want)
	}
}

func TestRunFleetComparisonCustomPolicy(t *testing.T) {
	rows, err := RunFleetComparison(FleetStudyConfig{
		Seed:       11,
		Tick:       30 * time.Minute,
		WarmupDays: 1,
		Days:       1,
		Target:     1,
		Regions:    []market.Region{"us-east-1"},
		Policies:   []fleet.BidPolicy{&fleet.Threshold{Multiple: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Policy != "threshold" {
		t.Fatalf("rows = %+v, want one threshold row", rows)
	}
}
