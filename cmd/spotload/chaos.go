package main

// The drill: failure-domain smoke for replication, failover and the gateway.
//
// Topology (all in-process):
//
//	leader (accelerated study)
//	  ├── durable follower F1, replicating through a chaos.Proxy
//	  ├── memory follower F2, attached directly (the reference replica)
//	  └── gateway over {leader, F1, F2} with a fault-injecting transport
//	      (delays + random connection resets), configured as
//	      spotlight-gateway ships: every-peer failover and breakers
//
// Script, under continuous gateway read load:
//
//	1. warm up, then kill F1's replication stream repeatedly (proxy
//	   connection kills) — F1 must reconnect with resume, no gap
//	2. restart F1 from its data dir — it must replay locally and resume
//	   the stream from its durable cursor
//	3. halt the leader's simulation (generation freezes, streams stay
//	   up) and prove exactly-once replication: once both replicas drain
//	   to the frozen state, F1 and F2 must answer absolute-window
//	   queries byte-identically, ETags included (a duplicated or lost
//	   event would skew F1's generations and change every tag)
//	4. kill the leader — the fleet keeps answering from the replicas
//	5. promote F1 (no force — the split-brain guard must accept a dead
//	   leader) and watch its store generation advance: the promoted
//	   node accepts writes
//	6. scrape every surviving node: each must serve its role's core
//	   series and show the traffic it carried (HTTP requests on every
//	   node, upstream requests on the gateway, applied records on F2),
//	   and gateway read availability must have stayed >= 99% through
//	   all of it
//
// The run writes a phase-by-phase report (printed, and archived in CI
// next to the bench output).

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/chaos"
	"spotlight/internal/daemon"
	"spotlight/internal/gateway"
	"spotlight/internal/obs"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

// chaosAvailabilityTarget is the acceptance floor for gateway reads.
const chaosAvailabilityTarget = 99.0

// chaosTally counts gateway read outcomes.
type chaosTally struct {
	total atomic.Uint64
	ok    atomic.Uint64
}

func (t *chaosTally) availability() float64 {
	total := t.total.Load()
	if total == 0 {
		return 0
	}
	return 100 * float64(t.ok.Load()) / float64(total)
}

// runChaos executes the scenario and returns an error unless every
// assertion holds.
func runChaos(o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var report strings.Builder
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		fmt.Println(line)
		report.WriteString(line + "\n")
	}
	logf("chaos: failure-domain smoke starting")

	dataDir, err := os.MkdirTemp("", "spotlight-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	// Leader with an aggressively accelerated study so every phase has
	// fresh appends to replicate.
	leader, err := daemon.Start(daemon.Options{
		Addr: "127.0.0.1:0", Seed: 42, Tick: 5 * time.Minute, Speed: 600, MaxWatchers: 64,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return fmt.Errorf("chaos: start leader: %w", err)
	}
	leaderClosed := false
	closers = append(closers, func() {
		if !leaderClosed {
			leader.Close()
		}
	})
	if err := waitForProbes(ctx, leader.BaseURL()); err != nil {
		return fmt.Errorf("chaos: leader ingest: %w", err)
	}
	logf("chaos: leader up at %s", leader.BaseURL())

	// F1 replicates through a TCP chaos proxy so its stream can be killed
	// on the wire.
	leaderHost := strings.TrimPrefix(leader.BaseURL(), "http://")
	proxy, err := chaos.NewProxy("127.0.0.1:0", leaderHost)
	if err != nil {
		return fmt.Errorf("chaos: proxy: %w", err)
	}
	closers = append(closers, proxy.Close)

	followOpts := daemon.Options{
		Addr: "127.0.0.1:0", Tick: 5 * time.Minute, Speed: 600,
		DataDir: dataDir, SnapInterval: time.Hour, MaxWatchers: 64,
		Follow:           "http://" + proxy.Addr(),
		FollowStaleAfter: time.Second,
	}
	// Each daemon life gets its own registry: series describe one
	// process, and the restart below must not inherit the first life's
	// counts.
	followOpts.Metrics = obs.NewRegistry()
	f1, err := daemon.Start(followOpts)
	if err != nil {
		return fmt.Errorf("chaos: start durable follower: %w", err)
	}
	f1Closed := false
	closers = append(closers, func() {
		if !f1Closed {
			f1.Close()
		}
	})

	// F2 is the never-killed reference replica.
	f2, err := daemon.Start(daemon.Options{
		Addr: "127.0.0.1:0", Follow: leader.BaseURL(),
		FollowStaleAfter: time.Second, MaxWatchers: 64,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return fmt.Errorf("chaos: start memory follower: %w", err)
	}
	closers = append(closers, func() { f2.Close() })
	logf("chaos: followers up — durable %s (via proxy %s), memory %s", f1.BaseURL(), proxy.Addr(), f2.BaseURL())

	// Gateway over all three nodes, its upstream transport injecting
	// per-request delays and random connection resets for the whole run.
	tr := chaos.NewTransport(nil, 42)
	tr.SetDelay(time.Millisecond, 4*time.Millisecond)
	tr.SetResetRate(0.01)
	f1URL := f1.BaseURL()
	gw, err := gateway.New(gateway.Config{
		Nodes:      []string{leader.BaseURL(), f1URL, f2.BaseURL()},
		Timeout:    5 * time.Second,
		HTTPClient: &http.Client{Transport: tr},
	})
	if err != nil {
		return fmt.Errorf("chaos: build gateway: %w", err)
	}
	gw.EnableMetrics(obs.NewRegistry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("chaos: gateway listen: %w", err)
	}
	gwSrv := &http.Server{Handler: gw.Handler()}
	go func() { _ = gwSrv.Serve(ln) }()
	closers = append(closers, func() {
		shutCtx, c := context.WithTimeout(context.Background(), 3*time.Second)
		defer c()
		_ = gwSrv.Shutdown(shutCtx)
	})
	gwURL := "http://" + ln.Addr().String()
	logf("chaos: gateway up at %s (injected: %s)", gwURL, tr)

	// Continuous read load against the gateway: mixed scope-less and
	// market-scoped batches, tallying availability.
	gc, err := client.New(gwURL, &http.Client{Timeout: 5 * time.Second})
	if err != nil {
		return err
	}
	markets, err := gc.Markets(ctx, "", "")
	if err != nil || len(markets) == 0 {
		return fmt.Errorf("chaos: market catalog via gateway: %w", err)
	}
	var tally chaosTally
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	var loadWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			m := markets[w%len(markets)].Market
			for loadCtx.Err() == nil {
				rctx, rcancel := context.WithTimeout(loadCtx, 5*time.Second)
				resp, err := gc.Batch(rctx,
					api.Query{Kind: api.KindSummary},
					api.Query{Kind: api.KindStable, N: 5, Window: api.Last(24 * time.Hour)},
					api.Query{Kind: api.KindPrices, Market: m, Window: api.Last(6 * time.Hour)},
				)
				rcancel()
				if loadCtx.Err() != nil {
					return // shutdown race, not an availability sample
				}
				tally.total.Add(1)
				good := err == nil
				if good {
					for _, res := range resp.Results {
						if res.Error != nil && res.Error.Code == api.CodeUpstream {
							good = false
						}
					}
				}
				if good {
					tally.ok.Add(1)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}(w)
	}

	// Phase 1: warm load, then repeated replication-stream kills.
	time.Sleep(1500 * time.Millisecond)
	for i := 0; i < 3; i++ {
		proxy.KillConnections()
		time.Sleep(300 * time.Millisecond)
	}
	if err := waitCaughtUp(ctx, f1URL, leader.BaseURL()); err != nil {
		return fmt.Errorf("chaos: follower did not recover from stream kills: %w", err)
	}
	logf("chaos: phase 1 ok — replication survived 3 stream kills (availability so far %.2f%%)", tally.availability())

	// Phase 2: restart the durable follower; it must come back from its
	// WAL'd store + durable cursor and catch up.
	if err := f1.Close(); err != nil {
		return fmt.Errorf("chaos: stop durable follower: %w", err)
	}
	f1Closed = true
	time.Sleep(700 * time.Millisecond) // fleet runs a node short; load keeps flowing
	followOpts.Metrics = obs.NewRegistry()
	f1, err = daemon.Start(followOpts)
	if err != nil {
		return fmt.Errorf("chaos: restart durable follower: %w", err)
	}
	f1Closed = false
	if f1.BaseURL() != f1URL {
		// The restarted node got a fresh ephemeral port; repoint checks at
		// it (the gateway keeps the old URL and treats it as a dead node —
		// which is itself part of the failure drill).
		logf("chaos: follower restarted on %s (was %s); gateway sees the old address as dead", f1.BaseURL(), f1URL)
	}
	if err := waitCaughtUp(ctx, f1.BaseURL(), leader.BaseURL()); err != nil {
		return fmt.Errorf("chaos: restarted follower did not catch up: %w", err)
	}
	st, err := nodeHealth(ctx, f1.BaseURL())
	if err != nil {
		return err
	}
	if st.Replication == nil || st.Replication.Role != "follower" {
		return fmt.Errorf("chaos: restarted node is not reporting follower state: %+v", st.Replication)
	}
	if st.Replication.Resyncs > 0 {
		// A resync is a snapshot transfer, not the cursor resume this
		// phase exercises: fail loudly at the cause.
		return fmt.Errorf("chaos: restarted follower fell out of the replay ring (%d resyncs) — exactly-once resume not exercised", st.Replication.Resyncs)
	}
	logf("chaos: phase 2 ok — durable follower restarted from %s and resumed (gen %d, cursor %s)",
		dataDir, st.Store.Generation, st.Replication.LastEventID)

	// Phase 3: halt the leader's simulation — its generation freezes while
	// streams stay up, so both replicas drain to exactly the final state.
	// (An abrupt kill would freeze each follower at whatever its own
	// connection had delivered; the exactly-once comparison needs a common
	// target, and "halt, drain, then die" is also the realistic graceful-
	// handoff sequence.)
	leader.Halt()
	if err := waitQuiesced(ctx, f1.BaseURL(), f2.BaseURL()); err != nil {
		return fmt.Errorf("chaos: replicas did not settle after leader halt: %w", err)
	}
	compared, err := compareReplicas(ctx, f1.BaseURL(), f2.BaseURL(), markets)
	if err != nil {
		return fmt.Errorf("chaos: exactly-once check failed: %w", err)
	}
	logf("chaos: phase 3 ok — %d absolute-window responses byte-identical across restarted and reference replicas (zero duplicated or lost events)", compared)

	// Phase 4: now kill the leader outright, mid-load.
	if err := leader.Close(); err != nil {
		return fmt.Errorf("chaos: kill leader: %w", err)
	}
	leaderClosed = true
	logf("chaos: phase 4 — leader killed")

	// Phase 5: promote the durable follower. The split-brain guard must
	// accept (leader confirmed dead, stream stale) without force.
	f1c, err := client.New(f1.BaseURL(), nil)
	if err != nil {
		return err
	}
	if err := waitDisconnected(ctx, f1.BaseURL()); err != nil {
		return fmt.Errorf("chaos: follower still thinks the dead leader streams: %w", err)
	}
	genBefore := st.Store.Generation
	if st, err = nodeHealth(ctx, f1.BaseURL()); err == nil {
		genBefore = st.Store.Generation
	}
	if _, err := f1c.Promote(ctx, false); err != nil {
		return fmt.Errorf("chaos: promote refused: %w", err)
	}
	if err := waitGenAbove(ctx, f1.BaseURL(), genBefore); err != nil {
		return fmt.Errorf("chaos: promoted leader is not appending: %w", err)
	}
	st, err = nodeHealth(ctx, f1.BaseURL())
	if err != nil {
		return err
	}
	if st.Status != "ok" || st.Replication == nil || st.Replication.Role != "promoted" {
		return fmt.Errorf("chaos: promoted node health: status %q, replication %+v", st.Status, st.Replication)
	}
	logf("chaos: phase 5 ok — follower promoted, store generation %d > %d, health %q", st.Store.Generation, genBefore, st.Status)

	// Phase 6: the verdict. First scrape every surviving node's metrics:
	// the drill also proves the observability layer serves its core
	// series on a promoted node, a live follower, and the gateway, and
	// that their counters saw the drill's traffic.
	time.Sleep(500 * time.Millisecond)
	stopLoad()
	loadWG.Wait()
	summary, dump, err := scrapeMetrics(ctx, []scrapeTarget{
		followerTarget("f1-promoted", f1.BaseURL()),
		followerTarget("f2", f2.BaseURL(), "spotlight_replica_applied_total"),
		gatewayTarget("gateway", gwURL),
	})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	for _, line := range summary {
		logf("chaos: %s", line)
	}
	if err := writeMetricsDump(o.metricsDump, dump); err != nil {
		return err
	}
	avail := tally.availability()
	logf("chaos: load summary — %d gateway reads, %d ok, availability %.2f%% (target >= %.0f%%)",
		tally.total.Load(), tally.ok.Load(), avail, chaosAvailabilityTarget)
	if avail < chaosAvailabilityTarget {
		logf("chaos: FAIL — availability below target")
		writeChaosReport(o.report, report.String())
		return fmt.Errorf("chaos: gateway availability %.2f%% below %.0f%%", avail, chaosAvailabilityTarget)
	}
	logf("chaos: ok — every failure domain held")
	return writeChaosReport(o.report, report.String())
}

func writeChaosReport(path, content string) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return fmt.Errorf("write chaos report: %w", err)
	}
	fmt.Printf("spotload: chaos report written to %s\n", path)
	return nil
}

// nodeHealth fetches one node's /v2/health.
func nodeHealth(ctx context.Context, baseURL string) (*api.Health, error) {
	c, err := client.New(baseURL, nil)
	if err != nil {
		return nil, err
	}
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return c.Health(hctx)
}

// waitCaughtUp polls until follower's global generation reaches the
// leader's (sampling the leader first keeps the race benign: the
// follower may be ahead of the sample, never behind the truth).
func waitCaughtUp(ctx context.Context, followerURL, leaderURL string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	polls := 0
	for {
		lh, lerr := nodeHealth(ctx, leaderURL)
		fh, ferr := nodeHealth(ctx, followerURL)
		if lerr == nil && ferr == nil &&
			fh.Replication != nil && fh.Replication.Connected &&
			fh.Store.Generation >= lh.Store.Generation && lh.Store.Generation > 0 {
			return nil
		}
		if polls++; polls%5 == 0 {
			state := fmt.Sprintf("leader err %v, follower err %v", lerr, ferr)
			if lerr == nil && ferr == nil {
				state = fmt.Sprintf("leader gen %d, follower gen %d, replication %+v",
					lh.Store.Generation, fh.Store.Generation, fh.Replication)
			}
			fmt.Printf("chaos: still waiting for catch-up: %s\n", state)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// waitQuiesced polls until both nodes report the same global generation
// twice in a row — the replicas drained the dead leader's final events.
func waitQuiesced(ctx context.Context, aURL, bURL string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var last uint64
	stable := 0
	polls := 0
	for {
		ah, aerr := nodeHealth(ctx, aURL)
		bh, berr := nodeHealth(ctx, bURL)
		if polls++; polls%10 == 0 {
			if aerr == nil && berr == nil {
				fmt.Printf("chaos: still waiting for quiesce: a gen %d (%+v), b gen %d (%+v)\n",
					ah.Store.Generation, ah.Replication, bh.Store.Generation, bh.Replication)
			} else {
				fmt.Printf("chaos: still waiting for quiesce: a err %v, b err %v\n", aerr, berr)
			}
		}
		if aerr == nil && berr == nil && ah.Store.Generation == bh.Store.Generation && ah.Store.Generation > 0 {
			if ah.Store.Generation == last {
				stable++
				if stable >= 2 {
					return nil
				}
			} else {
				stable = 0
				last = ah.Store.Generation
			}
		} else {
			stable = 0
		}
		select {
		case <-ctx.Done():
			if aerr != nil || berr != nil {
				return fmt.Errorf("health polls failing (a: %v, b: %v): %w", aerr, berr, ctx.Err())
			}
			return ctx.Err()
		case <-time.After(150 * time.Millisecond):
		}
	}
}

// waitDisconnected polls until the follower reports its stream down
// (the staleness detector fired after the leader died).
func waitDisconnected(ctx context.Context, baseURL string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		h, err := nodeHealth(ctx, baseURL)
		if err == nil && h.Replication != nil && !h.Replication.Connected {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(150 * time.Millisecond):
		}
	}
}

// waitGenAbove polls until the node's global generation exceeds floor —
// proof a promoted node's own study is appending.
func waitGenAbove(ctx context.Context, baseURL string, floor uint64) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		h, err := nodeHealth(ctx, baseURL)
		if err == nil && h.Store.Generation > floor {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// compareReplicas fetches a battery of absolute-window /v1 responses
// from both nodes and requires byte-identical bodies AND equal ETags.
// Absolute windows keep the service clock out of the tags, so equality
// is exactly "same records, same generations, same salt" — the
// exactly-once property. Returns how many URLs were compared.
func compareReplicas(ctx context.Context, aURL, bURL string, markets []api.MarketInfo) (int, error) {
	h, err := nodeHealth(ctx, bURL)
	if err != nil {
		return 0, err
	}
	from := url.QueryEscape("2000-01-01T00:00:00Z")
	to := url.QueryEscape(h.Now.Add(time.Hour).UTC().Format(time.RFC3339))
	win := "from=" + from + "&to=" + to

	paths := []string{
		"/v1/stable?n=25&" + win,
		"/v1/volatile?n=25&" + win,
	}
	n := len(markets)
	if n > 3 {
		n = 3
	}
	for _, m := range markets[:n] {
		id := url.QueryEscape(m.Market)
		paths = append(paths,
			"/v1/prices?market="+id+"&"+win,
			"/v1/outages?market="+id+"&"+win,
			"/v1/unavailability?market="+id+"&kind=spot&"+win,
		)
	}
	for _, p := range paths {
		aBody, aTag, err := fetchTagged(ctx, aURL+p)
		if err != nil {
			return 0, fmt.Errorf("fetch %s from restarted replica: %w", p, err)
		}
		bBody, bTag, err := fetchTagged(ctx, bURL+p)
		if err != nil {
			return 0, fmt.Errorf("fetch %s from reference replica: %w", p, err)
		}
		if aTag == "" || aTag != bTag {
			return 0, fmt.Errorf("%s: ETag mismatch (restarted %q vs reference %q)", p, aTag, bTag)
		}
		if string(aBody) != string(bBody) {
			return 0, fmt.Errorf("%s: bodies differ (%d vs %d bytes)", p, len(aBody), len(bBody))
		}
	}
	return len(paths), nil
}

// fetchTagged GETs one URL raw, returning body bytes and the ETag.
func fetchTagged(ctx context.Context, u string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get(api.HeaderETag), nil
}
