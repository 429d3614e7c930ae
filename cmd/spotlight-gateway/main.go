// Command spotlight-gateway fronts a replica fleet of SpotLight store
// nodes — a leader and its -follow followers, each holding the full
// store — with one HTTP endpoint (see internal/gateway and
// docs/replication.md).
//
// Usage:
//
//	spotlight-gateway -nodes http://a:8080,http://b:8080 [-addr :8090]
//	                  [-timeout 10s] [-log-format text|json] [-debug-addr ADDR]
//
// The gateway serves its own metrics — per-node upstream latency and
// outcomes, retries, breaker state, plus the shared HTTP series — on
// GET /metrics (Prometheus text) and GET /v2/metrics (JSON). -debug-addr
// adds a second listener with net/http/pprof. Logs are structured
// (log/slog); -log-format picks text or json.
//
// Every request is forwarded whole to one node picked by consistent
// hash — /v1 reads by market (per-market cache affinity), POST
// /v2/query batches and /v2/advise by their body — and the node's
// status, body and ETag pass through untouched. GET /v2/health
// aggregates the whole fleet.
//
// The gateway is health-aware: an idempotent read tries every node
// once, healthy ones first, until one answers; only when every node
// fails does it answer 502 with code "upstream". A node that fails 3
// calls in a row is ejected from rotation for 5s (circuit breaker;
// /v2/health shows per-node breaker state), then re-admitted by a
// successful trial call or health poll. A slow but live node costs up
// to -timeout per read: failover moves on only when an attempt fails.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spotlight/internal/gateway"
	"spotlight/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).
			Error("fatal", "component", "spotlight-gateway", "err", err)
		os.Exit(1)
	}
}

// cmdOptions are the command-only switches.
type cmdOptions struct {
	addr      string
	logFormat string
	debugAddr string
}

// parseFlags maps the command line onto a gateway.Config plus the
// command-only switches.
func parseFlags(args []string) (gateway.Config, cmdOptions, error) {
	fs := flag.NewFlagSet("spotlight-gateway", flag.ContinueOnError)
	var (
		c     cmdOptions
		nodes string
		cfg   gateway.Config
	)
	fs.StringVar(&c.addr, "addr", ":8090", "HTTP listen address")
	fs.StringVar(&c.logFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&c.debugAddr, "debug-addr", "",
		"optional debug listener serving net/http/pprof plus /metrics (empty disables)")
	fs.StringVar(&nodes, "nodes", "",
		"comma-separated store node base URLs (e.g. http://a:8080,http://b:8080)")
	fs.DurationVar(&cfg.Timeout, "timeout", 10*time.Second, "per upstream round-trip timeout")
	if err := fs.Parse(args); err != nil {
		return cfg, c, err
	}
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			cfg.Nodes = append(cfg.Nodes, n)
		}
	}
	if len(cfg.Nodes) == 0 {
		return cfg, c, errors.New("-nodes is required (comma-separated store node base URLs)")
	}
	if cfg.Timeout <= 0 {
		return cfg, c, errors.New("timeout must be positive")
	}
	return cfg, c, nil
}

func run(args []string) error {
	cfg, cmd, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, cmd.logFormat, "spotlight-gateway")
	if err != nil {
		return err
	}
	g, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	g.EnableMetrics(reg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cmd.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: g.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	logger.Info("serving", "addr", ln.Addr().String(), "nodes", len(cfg.Nodes))
	if cmd.debugAddr != "" {
		dbg, stopDbg, err := obs.ServeDebug(cmd.debugAddr, reg)
		if err != nil {
			return err
		}
		defer stopDbg()
		logger.Info("debug listener up", "addr", dbg)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}
