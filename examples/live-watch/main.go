// Live-watch example: the push side of the information service. A
// SpotLight study ingests in the background while a consumer — a
// SpotCheck-style derivative platform — subscribes to GET /v2/watch
// through pkg/client.Watch and steers its fallback market from pushed
// events instead of polling: every revocation or outage-open event in
// its region invalidates the cached recommendation, and the next
// migration decision re-fetches it over the query API. This closes the
// loop the poll-based examples leave open: one store append fans out to
// every subscriber, and reaction latency drops from a polling interval
// to a tick.
//
//	go run ./examples/live-watch
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
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
	// A one-day study stepped manually, the daemon's serving shape in
	// miniature: ticks ingest, the query API serves, the feed pushes.
	st, err := experiment.New(experiment.Config{Seed: 21, Days: 1})
	if err != nil {
		return err
	}
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return st.Sim.Now()
	}
	apiSrv := query.NewAPI(query.NewEngine(st.DB, st.Cat), now)
	apiSrv.SetCacheTTL(time.Second)
	defer apiSrv.Shutdown()
	srv := httptest.NewServer(apiSrv.Handler())
	defer srv.Close()

	c, err := client.New(srv.URL, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()

	// The platform hosts VMs on this case-study market and watches its
	// region for availability news.
	host := experiment.CaseStudyMarkets()[0]
	w, err := c.Watch(ctx, client.WatchOptions{
		Region: string(host.Region()),
		Kinds:  []api.EventKind{api.EventRevocation, api.EventOutageOpen, api.EventOutageClose},
		Buffer: 1024,
	})
	if err != nil {
		return err
	}
	defer w.Close()

	// Event-steered fallback: recompute only when the watch pushed news, or
	// a resync (a gap's news is only in the query), since the last decision.
	signaled := func() bool {
		saw := false
		for {
			select {
			case ev, ok := <-w.Events():
				if !ok {
					return saw
				}
				if ev.Kind == api.EventRevocation || ev.Kind == api.EventOutageOpen || ev.Kind == api.EventOutageClose || ev.Kind == api.EventResync {
					saw = true
				}
			default:
				return saw
			}
		}
	}
	recomputes := 0
	cached := host
	steer := func() market.SpotID {
		if signaled() || recomputes == 0 {
			recomputes++
			cached = host
			if fbs, err := c.Fallback(ctx, host.String(), 1, api.Last(24*time.Hour)); err == nil && len(fbs) > 0 {
				if parsed, err := market.ParseSpotID(fbs[0].Market); err == nil {
					cached = parsed
				}
			}
		}
		return cached
	}

	fmt.Printf("live-watch: hosting on %s, watching region %s for revocations/outages\n\n", host, host.Region())

	// Ingest half a simulated day, consulting the steering every hour the
	// way a migration controller would.
	const ticks = 144 // 12h at 5m
	decisions := 0
	for i := 0; i < ticks; i++ {
		mu.Lock()
		st.Sim.Step()
		st.Svc.OnTick()
		mu.Unlock()
		if i%12 == 11 { // once per simulated hour
			decisions++
			target := steer()
			if target != host {
				fmt.Printf("%s  steering: fall back to %s\n", now().Format("15:04"), target)
			}
		}
	}

	stats := st.DB.Feed().Stats()
	fmt.Printf("\nafter 12 simulated hours: %d feed events published, %d migration decisions, %d steering recomputes\n",
		stats.Published, decisions, recomputes)
	fmt.Printf("(the controller re-ran the fallback query only when events arrived — %d times, not %d)\n",
		recomputes, decisions)

	// The operator's view of the same subsystem.
	health, err := fetchHealth(srv.URL)
	if err != nil {
		return err
	}
	fmt.Printf("health: status=%s store=%s watchers=%d/%d published=%d dropped=%d\n",
		health.Status, health.Store.Mode, health.Watch.Subscribers, health.Watch.Cap,
		health.Watch.Published, health.Watch.Dropped)
	return nil
}

// fetchHealth reads GET /v2/health.
func fetchHealth(baseURL string) (api.Health, error) {
	var h api.Health
	resp, err := http.Get(baseURL + "/v2/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("health: HTTP %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}
