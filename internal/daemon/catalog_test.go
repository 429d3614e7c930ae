package daemon

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"spotlight/internal/gateway"
	"spotlight/internal/obs"
)

// The metric catalog in docs/observability.md is the operator's map of
// /metrics, so it must name exactly the families a fleet serves. A
// leader, a follower and a gateway register their series the way
// spotlightd and spotlight-gateway do, each serves one request (the HTTP
// series register on first use), and the union of their family names is
// diffed against the catalog tables in both directions. The fleet
// engine's series are documented in prose, not in a table, because only
// embedders of internal/fleet register them; no daemon role does.
func TestMetricCatalogMatchesDocs(t *testing.T) {
	quiet := Options{Addr: "127.0.0.1:0", Seed: 7, Tick: 24 * time.Hour, Speed: 1, MaxWatchers: 8}
	node := func(o Options) (*Daemon, *obs.Registry) {
		t.Helper()
		o.Metrics = obs.NewRegistry()
		obs.RegisterRuntime(o.Metrics)
		d, err := Start(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d, o.Metrics
	}
	leader, leaderReg := node(quiet)
	follow := quiet
	follow.Follow = leader.BaseURL()
	follower, followerReg := node(follow)

	gw, err := gateway.New(gateway.Config{Nodes: []string{leader.BaseURL(), follower.BaseURL()}})
	if err != nil {
		t.Fatal(err)
	}
	gwReg := obs.NewRegistry()
	obs.RegisterRuntime(gwReg)
	gw.EnableMetrics(gwReg)

	for _, url := range []string{leader.BaseURL(), follower.BaseURL()} {
		resp, err := http.Get(url + "/v2/health")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	gw.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v2/health", nil))

	registered := map[string]bool{}
	for _, reg := range []*obs.Registry{leaderReg, followerReg, gwReg} {
		for _, f := range reg.Snapshot() {
			registered[strings.TrimPrefix(f.Name, "spotlight_")] = true
		}
	}
	documented := catalogSeries(t, "../../docs/observability.md")
	for name := range registered {
		if !documented[name] {
			t.Errorf("spotlight_%s is registered but missing from the metric catalog", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("the metric catalog documents %s, but no leader, follower or gateway registers it", name)
		}
	}
}

// catalogSeries returns the first column of every table row under the
// doc's "## Metric catalog" heading, up to the next level-2 heading.
func catalogSeries(t *testing.T, path string) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Metric catalog\n")
	if !ok {
		t.Fatalf("%s has no metric catalog section", path)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	series := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(cell, "`")
			series[name] = true
		}
	}
	if len(series) == 0 {
		t.Fatalf("%s: no series rows in the metric catalog", path)
	}
	return series
}
