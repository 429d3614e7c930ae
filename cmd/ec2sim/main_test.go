package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"spotlight/internal/cloud"
	"spotlight/internal/market"
)

func TestRunPrintsSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator command test skipped in -short mode")
	}
	var sb strings.Builder
	err := run([]string{"-days", "1", "-seed", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"price changes", "ground-truth on-demand outages", "region"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator command test skipped in -short mode")
	}
	var sb strings.Builder
	err := run([]string{"-days", "1", "-seed", "4", "-trace"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x od)") {
		t.Error("trace output missing price lines")
	}
}

func TestRunRejectsBadMarket(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-market", "garbage"}, &sb); err == nil {
		t.Error("malformed market accepted")
	}
}

// TestRunCountsEveryPriceChange runs long enough for a volatile market to
// change price more than 512 times and holds the reported count to an
// oracle: a second simulator with the same seed whose published price
// changes are counted after each step.
func TestRunCountsEveryPriceChange(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator command test skipped in -short mode")
	}
	const mkt = "us-east-1e:d2.8xlarge:Linux/UNIX"
	var sb strings.Builder
	if err := run([]string{"-days", "6", "-market", mkt}, &sb); err != nil {
		t.Fatal(err)
	}
	var got int
	_, summary, _ := strings.Cut(sb.String(), ", ")
	if _, err := fmt.Sscanf(summary, "%d price changes", &got); err != nil {
		t.Fatalf("no change count in %q: %v", sb.String(), err)
	}

	id, err := market.ParseSpotID(mkt)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cloud.New(market.New(), cloud.Config{Seed: 42, Tick: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	last, err := sim.SpotPrice(id)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 6*24*12; i++ {
		sim.Step()
		p, err := sim.SpotPrice(id)
		if err != nil {
			t.Fatal(err)
		}
		if p != last {
			want++
			last = p
		}
	}
	if got != want {
		t.Errorf("reported %d price changes, oracle counts %d", got, want)
	}
	if want <= 512 {
		t.Errorf("oracle counts %d changes; the market no longer tests past 512", want)
	}
}
