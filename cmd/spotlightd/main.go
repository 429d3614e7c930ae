// Command spotlightd runs the SpotLight information service as a daemon:
// the cloud simulation advances in accelerated time in the background
// while the query API (package query) is served over HTTP. This is the
// deployment shape of the paper's prototype — a continuously running
// information plane that applications query for availability data.
//
// Usage:
//
//	spotlightd [-addr :8080] [-seed 42] [-tick 5m] [-speed 300]
//	           [-data-dir DIR] [-snapshot-interval 1h]
//	           [-max-watchers 256] [-smoke]
//	           [-follow URL] [-follow-stale-after 45s]
//	           [-log-format text|json] [-slow-query 0] [-debug-addr ADDR]
//
// With -speed 300, five simulated minutes (one tick) pass per wall-clock
// second. By default the store is in-memory and a restart starts a fresh
// study. With -data-dir the store is durable (see docs/persistence.md):
// every tick's records are flushed to the store's write-ahead log,
// the whole store snapshots and compacts every -snapshot-interval of
// simulated time, and on restart the daemon replays snapshot plus WAL,
// resumes the recorded study clock, and serves byte-identical responses —
// ETags included — for everything recovered.
//
// With -follow the daemon is a read replica instead: no simulation runs;
// the store is built from the leader's whole history — a snapshot, then
// its log frames — over /v2/watch with Last-Event-ID resume, and the node
// serves the same read-only query surface with the leader's ETag salt and
// clock, so a caught-up follower answers byte-identically to its leader —
// ETags included. Replica lag is exposed in /v2/health. See
// docs/replication.md.
//
// -follow combines with -data-dir: the follower then persists the
// replicated store through the same WAL/snapshot layer a leader uses and
// its stream cursor beside it, so a restart replays locally and resumes
// the leader's stream from the durable cursor — with zero duplicated or
// lost records. A follower can
// also be promoted to leader when its leader dies: SIGUSR1 (or POST
// /v2/admin/promote) drains the subscription and resumes a study over
// the replicated store, preserving the ETag salt, clock timeline, and
// generations. Promotion is refused while the leader still streams
// (split-brain guard) — the endpoint's ?force=1 overrides; the signal
// path never forces. -follow-stale-after tunes how quickly a silent
// stream is declared disconnected.
//
// The service exposes two API surfaces (see docs/api.md for the full
// reference):
//
//	GET  /v1/unavailability?market=zone:type:product&kind=od|spot&window=24h
//	GET  /v1/stable?region=...&n=10&from=...&to=...
//	GET  /v1/volatile?region=...&n=10&window=24h
//	GET  /v1/fallback?market=...&n=5&window=24h
//	GET  /v1/prices?market=...&window=24h
//	GET  /v1/outages?market=...&window=24h
//	GET  /v1/predict?market=...&ratio=1.5&window=24h
//	GET  /v1/reserved-value?market=...&utilization=0.5&window=24h
//	GET  /v1/markets?region=...
//	GET  /v1/summary
//	POST /v2/query   — a batch of typed query specs answered in one round
//	                   trip; request and response DTOs live in pkg/api and
//	                   the Go SDK in pkg/client
//	GET  /v2/watch   — live Server-Sent Events stream of typed store
//	                   events (probes, prices, spikes, revocations,
//	                   outage transitions) with Last-Event-ID resume; see
//	                   docs/streaming.md and pkg/client.Watch
//	GET  /v2/health  — store mode, durability state, watch-stream
//	                   counters, and (on followers) replication lag
//	GET  /metrics    — Prometheus text exposition of the node's metrics
//	                   (HTTP latencies, store appends, WAL flushes,
//	                   replica lag, ...; see docs/observability.md)
//	GET  /v2/metrics — the same registry as JSON, quantiles precomputed
//
// Logs are structured (log/slog): -log-format picks text or json.
// -slow-query THRESHOLD logs any request slower than the threshold with
// a per-stage breakdown (parse, cache probe, exec, encode). -debug-addr
// starts a second listener serving net/http/pprof and /metrics, so
// profiling stays off the serving port.
//
// Windows are absolute (from/to, RFC3339) or relative (window=24h,
// resolved against the simulation clock). Errors use the machine-readable
// {code, message, details} envelope. Query responses carry Cache-Control
// max-age hints equal to the wall-clock tick interval.
//
// With -smoke the daemon starts, opens a /v2/watch stream, issues one v2
// batch query against itself through the pkg/client SDK, waits for a live
// event, prints the result, and exits — the CI health check for the whole
// serving path, streaming included.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spotlight/internal/daemon"
	"spotlight/internal/obs"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).
			Error("fatal", "component", "spotlightd", "err", err)
		os.Exit(1)
	}
}

// cmdOptions are the command-only switches that do not map onto
// daemon.Options.
type cmdOptions struct {
	smoke     bool
	logFormat string
	debugAddr string
}

// parseFlags maps the command line onto daemon.Options plus the
// command-only switches.
func parseFlags(args []string) (daemon.Options, cmdOptions, error) {
	fs := flag.NewFlagSet("spotlightd", flag.ContinueOnError)
	var (
		o daemon.Options
		c cmdOptions
	)
	fs.StringVar(&o.Addr, "addr", ":8080", "HTTP listen address")
	fs.Uint64Var(&o.Seed, "seed", 42, "simulation seed")
	fs.DurationVar(&o.Tick, "tick", 5*time.Minute, "simulation tick")
	fs.Float64Var(&o.Speed, "speed", 300, "simulated seconds per wall second")
	fs.BoolVar(&c.smoke, "smoke", false, "serve, query self once via the client SDK, and exit")
	fs.StringVar(&c.logFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&c.debugAddr, "debug-addr", "",
		"optional debug listener serving net/http/pprof plus /metrics (e.g. 127.0.0.1:6060; empty disables)")
	fs.DurationVar(&o.SlowQuery, "slow-query", 0,
		"log any query slower than this with a per-stage breakdown (0 disables tracing)")
	fs.StringVar(&o.DataDir, "data-dir", "",
		"durable store directory (write-ahead log + snapshots); empty keeps the store in memory")
	fs.DurationVar(&o.SnapInterval, "snapshot-interval", time.Hour,
		"simulated time between store snapshots when -data-dir is set (0: snapshot only at shutdown)")
	fs.IntVar(&o.MaxWatchers, "max-watchers", 256,
		"concurrent /v2/watch subscriber cap (above it new streams get 429)")
	fs.StringVar(&o.Follow, "follow", "",
		"run as a read replica of the leader at this base URL (no simulation; see docs/replication.md)")
	fs.DurationVar(&o.FollowStaleAfter, "follow-stale-after", 0,
		"how long without stream progress before the follower reports disconnected (0: 45s default)")
	if err := fs.Parse(args); err != nil {
		return o, c, err
	}
	if o.Speed <= 0 {
		return o, c, errors.New("speed must be positive")
	}
	if o.SnapInterval < 0 {
		return o, c, errors.New("snapshot-interval must not be negative")
	}
	if o.MaxWatchers <= 0 {
		return o, c, errors.New("max-watchers must be positive")
	}
	if o.SlowQuery < 0 {
		return o, c, errors.New("slow-query must not be negative")
	}
	return o, c, nil
}

func run(args []string) error {
	opts, cmd, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, cmd.logFormat, "spotlightd")
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	opts.Metrics = reg
	opts.Logger = logger

	// SIGTERM is how systemd/docker stop a daemon; treating it like
	// Ctrl-C makes routine stops clean shutdowns (final WAL flush,
	// snapshot, clean marker) instead of crashes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := daemon.Start(opts)
	if err != nil {
		return err
	}
	if opts.Follow != "" {
		logger.Info("serving", "addr", d.Addr(), "store", d.StoreDesc)
	} else {
		logger.Info("serving", "addr", d.Addr(), "tick", opts.Tick, "speed", opts.Speed, "store", d.StoreDesc)
	}
	if cmd.debugAddr != "" {
		dbg, stopDbg, err := obs.ServeDebug(cmd.debugAddr, reg)
		if err != nil {
			_ = d.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer stopDbg()
		logger.Info("debug listener up", "addr", dbg)
	}

	if cmd.smoke {
		serr := smokeCheck(ctx, d.BaseURL())
		if cerr := d.Close(); serr == nil {
			serr = cerr
		}
		return serr
	}

	// SIGUSR1 asks a follower to promote itself to leader — the
	// operator's failover lever when the leader host is gone. The signal
	// path never forces past the split-brain guard; use the
	// /v2/admin/promote endpoint with ?force=1 for that.
	promote := make(chan os.Signal, 1)
	signal.Notify(promote, syscall.SIGUSR1)
	defer signal.Stop(promote)

	for {
		select {
		case <-promote:
			if err := d.Promote(false); err != nil {
				logger.Error("promote refused", "err", err)
			} else {
				logger.Info("promoted to leader")
			}
		case err := <-d.ServeErr():
			// Close's error carries the session's sticky durability errors
			// (per-tick flush failures only resurface here), so it must not
			// be swallowed by the serve error.
			return errors.Join(err, d.Close())
		case <-ctx.Done():
			return d.Close()
		}
	}
}

// smokeCheck exercises the full serving path end to end: a live
// /v2/watch stream opened through the client SDK must deliver at least
// one ingested event, one v2 batch of three distinct query kinds must
// succeed, and the /v2/advise decision endpoint must accept a
// constrained workload (an empty ranking is fine this early in a run —
// the advisor only ranks markets it holds price history for).
func smokeCheck(ctx context.Context, baseURL string) error {
	c, err := client.New(baseURL, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()

	// Open the stream before querying so the ticks that answer the batch
	// also feed the watcher.
	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		return fmt.Errorf("smoke: watch failed to open: %w", err)
	}
	defer w.Close()

	resp, err := c.Batch(ctx,
		api.Query{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: api.Last(24 * time.Hour)},
		api.Query{Kind: api.KindMarkets, Region: "us-east-1", Product: "Linux/UNIX"},
		api.Query{Kind: api.KindSummary},
	)
	if err != nil {
		return fmt.Errorf("smoke: batch query failed: %w", err)
	}
	for i, res := range resp.Results {
		if res.Error != nil {
			return fmt.Errorf("smoke: query %d (%s) failed: %v", i, res.Kind, res.Error)
		}
	}

	adv, err := c.Advise(ctx, api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{
			Regions:  []string{"us-east-1"},
			Products: []string{"Linux/UNIX"},
			MinVCPU:  2,
			N:        5,
		},
		Window: api.Last(24 * time.Hour),
	})
	if err != nil {
		return fmt.Errorf("smoke: advise failed: %w", err)
	}

	// The simulation ticks continuously, so a data event must arrive.
	var firstEvent api.EventKind
waitEvent:
	for {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				return fmt.Errorf("smoke: watch ended before any event: %v", w.Err())
			}
			if ev.Kind == api.EventHello {
				continue
			}
			firstEvent = ev.Kind
			break waitEvent
		case <-ctx.Done():
			return fmt.Errorf("smoke: no watch event before timeout: %w", ctx.Err())
		}
	}

	fmt.Printf("smoke: ok — v2 batch at sim clock %s: %d stable rows, %d markets, %d region summaries; advise ranked %d candidates; watch delivered a %q event\n",
		resp.Now.Format(time.RFC3339), len(resp.Results[0].Stable), len(resp.Results[1].Markets), len(resp.Results[2].Summary), len(adv.Candidates), firstEvent)
	return nil
}
