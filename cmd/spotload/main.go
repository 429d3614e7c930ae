// Command spotload drives a SpotLight serving surface with a mixed read
// workload and reports per-operation latency distributions
// (p50/p90/p95/p99/max), throughput, and live-stream delivery counts.
//
// Usage:
//
//	spotload -targets http://gateway:8090 [-duration 10s]
//	         [-concurrency 8] [-watchers 2] [-report FILE]
//	spotload -smoke [-report FILE]
//	spotload -chaos [-report FILE]
//
// With -targets the harness loads whatever is listening there — a single
// spotlightd, a follower, or a spotlight-gateway fleet front.
//
// With -smoke the harness is self-contained: it boots a leader, attaches
// one read replica over /v2/watch, fronts both with a replica-fleet
// gateway, runs a short load against the gateway, and exits non-zero
// unless every request succeeded and both nodes answered health checks —
// the CI proof that the whole scale-out path (replication, routing,
// forwarding) serves under concurrent load. The report is printed
// and, with -report, also written to a file for archiving.
//
// With -chaos the harness runs the failure-domain drill instead: a
// leader, a durable follower replicating through a fault-injecting TCP
// proxy, a memory follower, and a health-aware gateway whose upstream
// transport injects delays and connection resets. Under continuous
// gateway load it kills the replication stream, restarts the durable
// follower from its data dir, kills the leader, byte-compares the
// replicas, and promotes the durable follower — exiting non-zero unless
// replication is exactly-once and gateway read availability stays at or
// above 99%. See cmd/spotload/chaos.go for the full script.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"spotlight/internal/daemon"
	"spotlight/internal/gateway"
	"spotlight/internal/loadgen"
	"spotlight/internal/obs"
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
	targets     []string
	duration    time.Duration
	concurrency int
	watchers    int
	report      string
	metricsDump string
	smoke       bool
	chaos       bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("spotload", flag.ContinueOnError)
	var (
		o       options
		targets string
	)
	fs.StringVar(&targets, "targets", "", "comma-separated base URLs to load")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "load duration")
	fs.IntVar(&o.concurrency, "concurrency", 8, "concurrent workers")
	fs.IntVar(&o.watchers, "watchers", 2, "live /v2/watch streams held open for the run")
	fs.StringVar(&o.report, "report", "", "also write the report to this file")
	fs.StringVar(&o.metricsDump, "metrics-dump", "",
		"write every node's raw /metrics exposition to this file at the end of the run")
	fs.BoolVar(&o.smoke, "smoke", false,
		"boot a leader + follower + gateway in-process, load the gateway briefly, and verify the run")
	fs.BoolVar(&o.chaos, "chaos", false,
		"run the self-contained failure-domain drill (leader kill, follower restart, promotion) and verify availability")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			o.targets = append(o.targets, t)
		}
	}
	if o.smoke && o.chaos {
		return o, errors.New("-smoke and -chaos are separate runs; pick one")
	}
	if !o.smoke && !o.chaos && len(o.targets) == 0 {
		return o, errors.New("-targets is required (or use -smoke / -chaos for a self-contained run)")
	}
	if o.duration <= 0 || o.concurrency <= 0 || o.watchers < 0 {
		return o, errors.New("duration and concurrency must be positive; watchers must not be negative")
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.chaos {
		return runChaos(o)
	}
	ctx := context.Background()

	cfg := loadgen.Config{
		Targets:     o.targets,
		Duration:    o.duration,
		Concurrency: o.concurrency,
		Watchers:    o.watchers,
	}

	var cleanup func()
	var scrapes []scrapeTarget
	if o.smoke {
		gwURL, nodes, stop, err := bootSmokeFleet(ctx)
		if err != nil {
			return err
		}
		cleanup = stop
		cfg.Targets = []string{gwURL}
		if o.duration > 3*time.Second {
			cfg.Duration = 3 * time.Second
		}
		scrapes = []scrapeTarget{
			leaderTarget("leader", nodes[0]),
			followerTarget("follower", nodes[1]),
			gatewayTarget("gateway", gwURL),
		}
		fmt.Printf("spotload: smoke fleet up — gateway %s over %d nodes (%s)\n",
			gwURL, len(nodes), strings.Join(nodes, ", "))
	} else {
		// External targets: role unknown, so the scrape is best-effort
		// (and only runs when a dump was asked for).
		if o.metricsDump != "" {
			for _, t := range o.targets {
				scrapes = append(scrapes, scrapeTarget{name: t, url: t})
			}
		}
	}

	rep, err := loadgen.Run(ctx, cfg)
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		return err
	}

	out := rep.String()
	// Scrape every node before teardown: the smoke verdict requires each
	// role's /metrics to serve its core series, and the folded headline
	// numbers ride in the archived report.
	if len(scrapes) > 0 {
		summary, dump, err := scrapeMetrics(ctx, scrapes)
		if err != nil {
			return err
		}
		out += strings.Join(summary, "\n") + "\n"
		if err := writeMetricsDump(o.metricsDump, dump); err != nil {
			return err
		}
	}
	fmt.Print(out)
	if o.report != "" {
		if err := os.WriteFile(o.report, []byte(out), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Printf("spotload: report written to %s\n", o.report)
	}

	if o.smoke {
		if rep.Requests == 0 {
			return errors.New("smoke: no requests completed")
		}
		if rep.Errors > 0 {
			return fmt.Errorf("smoke: %d of %d requests failed", rep.Errors, rep.Requests)
		}
		fmt.Printf("spotload: smoke ok — %d requests across the 2-node fleet, 0 errors\n", rep.Requests)
	}
	return nil
}

// bootSmokeFleet assembles the in-process topology: an accelerated
// leader, one follower attached over /v2/watch (its snapshot carries the
// leader's head start), and a gateway fronting both as
// a replica fleet. It returns once the gateway's aggregated health shows
// every node answering.
func bootSmokeFleet(ctx context.Context) (gwURL string, nodes []string, cleanup func(), err error) {
	leader, err := daemon.Start(daemon.Options{
		Addr: "127.0.0.1:0", Seed: 42, Tick: 5 * time.Minute, Speed: 30000, MaxWatchers: 64,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return "", nil, nil, fmt.Errorf("smoke: start leader: %w", err)
	}
	closers := []func(){func() { leader.Close() }}
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (string, []string, func(), error) {
		cleanup()
		return "", nil, nil, err
	}

	// Let the study ingest before attaching load: the market-scoped ops
	// want history, and the follower's snapshot then has data to ship.
	if err := waitForProbes(ctx, leader.BaseURL()); err != nil {
		return fail(fmt.Errorf("smoke: leader ingest: %w", err))
	}

	follower, err := daemon.Start(daemon.Options{
		Addr: "127.0.0.1:0", Follow: leader.BaseURL(), MaxWatchers: 64,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return fail(fmt.Errorf("smoke: start follower: %w", err))
	}
	closers = append(closers, func() { follower.Close() })

	nodes = []string{leader.BaseURL(), follower.BaseURL()}
	gw, err := gateway.New(gateway.Config{Nodes: nodes})
	if err != nil {
		return fail(fmt.Errorf("smoke: build gateway: %w", err))
	}
	gw.EnableMetrics(obs.NewRegistry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("smoke: gateway listen: %w", err))
	}
	gwSrv := &http.Server{Handler: gw.Handler()}
	go func() { _ = gwSrv.Serve(ln) }()
	closers = append(closers, func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = gwSrv.Shutdown(shutCtx)
	})
	gwURL = "http://" + ln.Addr().String()

	// The load only proves the fleet if every node is actually behind the
	// gateway; require the aggregated health to say so.
	gc, err := client.New(gwURL, nil)
	if err != nil {
		return fail(err)
	}
	hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	h, err := gc.Health(hctx)
	if err != nil {
		return fail(fmt.Errorf("smoke: gateway health: %w", err))
	}
	if h.Gateway == nil || len(h.Gateway.Nodes) != len(nodes) {
		return fail(fmt.Errorf("smoke: gateway health missing the per-node breakdown: %+v", h))
	}
	for _, nh := range h.Gateway.Nodes {
		if nh.Status == "unreachable" {
			return fail(fmt.Errorf("smoke: node %s unreachable: %s", nh.URL, nh.Error))
		}
	}
	return gwURL, nodes, cleanup, nil
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
