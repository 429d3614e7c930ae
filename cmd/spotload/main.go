// Command spotload runs the failure-domain drill: a leader, a durable
// follower replicating through a fault-injecting TCP proxy, a memory
// follower, and a health-aware gateway whose upstream transport injects
// delays and connection resets. Under continuous gateway load it kills
// the replication stream, restarts the durable follower from its data
// dir, kills the leader, byte-compares the replicas, and promotes the
// durable follower — exiting non-zero unless replication is
// exactly-once, gateway read availability stays at or above 99%, and
// every surviving node's metrics show the traffic it served. See
// cmd/spotload/chaos.go for the full script.
//
// Usage:
//
//	spotload [-report FILE] [-metrics-dump FILE]
//
// The phase report is printed and, with -report, also written to a file
// for archiving; -metrics-dump archives every surviving node's raw
// /metrics exposition at the end of the drill.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"spotlight/pkg/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).
			Error("fatal", "component", "spotload", "err", err)
		os.Exit(1)
	}
}

type options struct {
	report      string
	metricsDump string
}

func run(args []string) error {
	fs := flag.NewFlagSet("spotload", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.report, "report", "", "also write the report to this file")
	fs.StringVar(&o.metricsDump, "metrics-dump", "",
		"write every node's raw /metrics exposition to this file at the end of the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runChaos(o)
}

// waitForProbes polls the leader's summary until the study has ingested
// probe records.
func waitForProbes(ctx context.Context, baseURL string) error {
	c, err := client.New(baseURL, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		rows, err := c.Summary(ctx)
		if err == nil {
			total := 0
			for _, r := range rows {
				total += r.TotalODProbes + r.TotalSpotProbes
			}
			if total > 0 {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("no probes ingested before timeout: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}
