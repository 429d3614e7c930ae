package main

// End-of-drill metrics scrape: spotload pulls GET /metrics (Prometheus
// text) and GET /v2/metrics (JSON) from every surviving node, verifies
// the core series each role must serve and the counts that prove it
// served traffic, folds the headline numbers into the drill report, and
// optionally archives the raw expositions to a dump file (-metrics-dump)
// for CI artifacts.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"spotlight/internal/obs"
)

// Core-series requirements per role. Store-side series register
// unconditionally (zeros on in-memory nodes), so every store node must
// serve all of them regardless of durability.
var (
	coreHTTP = []string{
		"spotlight_http_requests_total",
		"spotlight_http_request_seconds_bucket",
		"spotlight_http_in_flight",
	}
	coreStore = []string{
		"spotlight_store_append_records_total",
		"spotlight_store_generation",
		"spotlight_store_wal_flushes_total",
		"spotlight_store_snapshots_total",
		"spotlight_feed_dropped_total",
	}
	coreReplica = []string{
		"spotlight_replica_applied_total",
		"spotlight_replica_lag_records",
		"spotlight_replica_reconnects_total",
	}
	coreGateway = []string{
		"spotlight_gateway_upstream_seconds",
		"spotlight_gateway_upstream_requests_total",
		"spotlight_gateway_breaker_state",
		"spotlight_gateway_breaker_opens_total",
	}
)

// scrapeTarget is one node to pull metrics from.
type scrapeTarget struct {
	name     string
	url      string
	required []string // series /metrics must contain
	positive []string // families whose /v2/metrics values must sum above 0
}

// followerTarget is a store node that replicated (or still replicates)
// from a leader; positive adds families that must have counted traffic
// beyond the HTTP requests every node serves.
func followerTarget(name, url string, positive ...string) scrapeTarget {
	req := append(append([]string{}, coreHTTP...), coreStore...)
	return scrapeTarget{name: name, url: url, required: append(req, coreReplica...),
		positive: append([]string{"spotlight_http_requests_total"}, positive...)}
}

func gatewayTarget(name, url string) scrapeTarget {
	return scrapeTarget{name: name, url: url, required: append(append([]string{}, coreHTTP...), coreGateway...),
		positive: []string{"spotlight_http_requests_total", "spotlight_gateway_upstream_requests_total"}}
}

// scrapeMetrics pulls every target and returns per-node summary lines
// plus the concatenated raw text expositions. The scrape fails when a
// node's /metrics or /v2/metrics is unserveable, a required series is
// missing, or a positive family reads 0.
func scrapeMetrics(ctx context.Context, targets []scrapeTarget) (summary []string, dump string, err error) {
	var db strings.Builder
	for _, t := range targets {
		text, err := fetchText(ctx, t.url+"/metrics")
		if err != nil {
			return nil, "", fmt.Errorf("metrics: %s (%s): /metrics unserveable: %w", t.name, t.url, err)
		}
		for _, series := range t.required {
			if !strings.Contains(text, series) {
				return nil, "", fmt.Errorf("metrics: %s (%s): core series %q missing from /metrics", t.name, t.url, series)
			}
		}
		fmt.Fprintf(&db, "==== %s (%s) ====\n%s\n", t.name, t.url, text)
		line, err := foldJSON(ctx, t)
		if err != nil {
			return nil, "", err
		}
		summary = append(summary, line)
	}
	return summary, db.String(), nil
}

// foldJSON reduces one node's /v2/metrics into the report line a failed
// CI run is triaged from (requests, worst-route HTTP p99, applied records,
// feed drops, replica lag, upstream requests, breaker opens), and fails
// unless every positive family of t counted something.
func foldJSON(ctx context.Context, t scrapeTarget) (string, error) {
	body, err := fetchText(ctx, t.url+"/v2/metrics")
	if err != nil {
		return "", fmt.Errorf("metrics: %s: /v2/metrics unserveable: %w", t.name, err)
	}
	var fams []obs.FamilySnapshot
	if err := json.Unmarshal([]byte(body), &fams); err != nil {
		return "", fmt.Errorf("metrics: %s: bad /v2/metrics JSON: %w", t.name, err)
	}
	sums := make(map[string]float64, len(fams))
	var p99 float64
	for _, f := range fams {
		for _, v := range f.Values {
			sums[f.Name] += v.Value
			if f.Name == "spotlight_http_request_seconds" && v.P99 > p99 {
				p99 = v.P99
			}
		}
	}
	for _, name := range t.positive {
		if sums[name] <= 0 {
			return "", fmt.Errorf("metrics: %s (%s): %s is %v after the drill, want > 0", t.name, t.url, name, sums[name])
		}
	}
	line := fmt.Sprintf("metrics: %s — %.0f http requests, worst-route p99 %.1fms",
		t.name, sums["spotlight_http_requests_total"], 1000*p99)
	if v, ok := sums["spotlight_replica_applied_total"]; ok {
		line += fmt.Sprintf(", %.0f records applied", v)
	}
	if v, ok := sums["spotlight_feed_dropped_total"]; ok {
		line += fmt.Sprintf(", %.0f feed drops", v)
	}
	if v, ok := sums["spotlight_replica_lag_records"]; ok {
		line += fmt.Sprintf(", replica lag %.0f", v)
	}
	if v, ok := sums["spotlight_gateway_breaker_opens_total"]; ok {
		line += fmt.Sprintf(", %.0f upstream requests, %.0f breaker opens, %.0f retries",
			sums["spotlight_gateway_upstream_requests_total"], v, sums["spotlight_gateway_retries_total"])
	}
	return line, nil
}

// fetchText GETs one URL and returns the body as a string.
func fetchText(ctx context.Context, url string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	return string(body), nil
}

// writeMetricsDump archives the concatenated expositions.
func writeMetricsDump(path, dump string) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		return fmt.Errorf("write metrics dump: %w", err)
	}
	fmt.Printf("spotload: metrics dump written to %s\n", path)
	return nil
}
