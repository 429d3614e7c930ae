package replica

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
)

var t0 = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)

// appendProbes lands probes as one append round per market, markets in
// order of first appearance, the way the monitor's tick flushes them.
func appendProbes(db *store.Store, probes []store.ProbeRecord) {
	var order []market.SpotID
	rounds := make(map[market.SpotID][]store.ProbeRecord)
	for _, r := range probes {
		if rounds[r.Market] == nil {
			order = append(order, r.Market)
		}
		rounds[r.Market] = append(rounds[r.Market], r)
	}
	for _, id := range order {
		db.Appender(id).AppendProbes(rounds[id])
	}
}

// killingWriter aborts the connection after a fixed number of written
// messages (one Write call each, whatever the wire format), simulating a
// flaky network path between follower and leader.
type killingWriter struct {
	http.ResponseWriter
	writes *int
	limit  int
}

func (k *killingWriter) Write(b []byte) (int, error) {
	n, err := k.ResponseWriter.Write(b)
	if *k.writes++; *k.writes >= k.limit {
		k.Flush()
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (k *killingWriter) Flush() {
	if f, ok := k.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// flakyProxy kills the first `kills` watch connections after `limit`
// messages each; later connections (and every non-watch request) pass
// through untouched.
type flakyProxy struct {
	inner http.Handler
	conns atomic.Int64
	kills int64
	limit int
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v2/watch" && p.conns.Add(1) <= p.kills {
		writes := 0
		p.inner.ServeHTTP(&killingWriter{ResponseWriter: w, writes: &writes, limit: p.limit}, r)
		return
	}
	p.inner.ServeHTTP(w, r)
}

// The acceptance test for replication: a follower attached over a link
// that keeps dying mid-ingest must still converge to the leader's exact
// store — every query answer byte-identical, ETags included, so a
// leader-minted validator revalidates (304) on the follower.
func TestFollowerConvergesByteIdenticalAcrossKills(t *testing.T) {
	// Leader: a store fed directly by the test, served by the real query
	// API under a simulated clock the test controls.
	db := store.New()
	var clockNanos atomic.Int64
	clockNanos.Store(t0.UnixNano())
	setClock := func(at time.Time) { clockNanos.Store(at.UnixNano()) }
	lapi := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time {
		return time.Unix(0, clockNanos.Load()).UTC()
	})
	defer lapi.Shutdown()
	proxy := &flakyProxy{inner: lapi.Handler(), kills: 4, limit: 6}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	// Follower: attaches before the leader ingests anything, so live
	// tailing plus exact ring replay covers the whole history.
	fdb := store.New()
	rep, err := New(Config{Leader: srv.URL, DB: fdb})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	select {
	case <-rep.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("replicator never became ready")
	}

	// Three catalog markets in one region, so the scoped rankings and the
	// summary all have signal.
	cat := market.New()
	var ids []market.SpotID
	for _, id := range cat.SpotMarkets() {
		if strings.HasPrefix(string(id.Zone), "us-east-1") {
			ids = append(ids, id)
			if len(ids) == 3 {
				break
			}
		}
	}
	if len(ids) < 3 {
		t.Fatalf("catalog has %d us-east-1 spot markets, want >= 3", len(ids))
	}

	// Ingest in rounds while the stream keeps dying: all five record
	// families, including an outage (rejected on-demand probes on ids[2])
	// that both sides must derive identically from probe order.
	for round := 0; round < 12; round++ {
		at := t0.Add(time.Duration(round) * 10 * time.Minute)
		setClock(at)
		var probes []store.ProbeRecord
		for i, id := range ids {
			probes = append(probes, store.ProbeRecord{
				At: at, Market: id, Kind: store.ProbeOnDemand,
				Trigger:  store.TriggerRecheck,
				Rejected: id == ids[2] && round >= 3 && round <= 5,
				Code:     map[bool]string{true: "ICE", false: ""}[id == ids[2] && round >= 3 && round <= 5],
				Cost:     0.01,
			})
			probes = append(probes, store.ProbeRecord{
				At: at.Add(time.Minute), Market: id, Kind: store.ProbeSpot,
				Trigger: store.TriggerSpike, TriggerMarket: ids[0], SourceKind: store.ProbeSpot,
				SpikeRatio: 1.2 + 0.1*float64(round), PriceRatio: 0.4 + 0.01*float64(i),
				Bid: 0.5, Cost: 0.02,
			})
		}
		appendProbes(db, probes)
		db.AppendSpike(store.SpikeEvent{At: at.Add(2 * time.Minute), Market: ids[round%3], Price: 0.9, Ratio: 1.2 + 0.1*float64(round), Probed: true})
		db.RecordPrice(ids[1], store.PricePoint{At: at.Add(3 * time.Minute), Price: 0.3 + 0.01*float64(round)})
		if round%3 == 0 {
			db.AppendRevocation(store.RevocationRecord{At: at.Add(4 * time.Minute), Market: ids[0], Bid: 0.5, Held: time.Duration(round+1) * time.Hour})
			db.AppendBidSpread(store.BidSpreadRecord{At: at.Add(5 * time.Minute), Market: ids[1], Published: 0.3, Intrinsic: 0.35, Attempts: 2 + round})
		}
		time.Sleep(10 * time.Millisecond) // let kills land mid-ingest
	}
	now := t0.Add(24 * time.Hour)
	setClock(now)

	// Quiesce: the follower must reach the leader's exact generation and
	// clock (the health poll ships the final clock step).
	deadline := time.Now().Add(15 * time.Second)
	for {
		if fdb.GlobalGeneration() == db.GlobalGeneration() && rep.Clock().Equal(now) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: gen %d vs leader %d, clock %v vs %v (status %+v)",
				fdb.GlobalGeneration(), db.GlobalGeneration(), rep.Clock(), now, rep.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}

	st := rep.Status()
	if st.Resyncs != 0 {
		t.Errorf("resyncs = %d, want 0 (ring replay should have covered every kill exactly)", st.Resyncs)
	}
	if st.Reconnects < uint64(proxy.kills) {
		t.Errorf("reconnects = %d, want >= %d (one per killed connection)", st.Reconnects, proxy.kills)
	}
	if st.Lag != 0 {
		t.Errorf("lag = %d after convergence, want 0", st.Lag)
	}

	// The follower's serving stack, assembled exactly as daemon follower
	// mode does: local engine over the replicated store, leader clock,
	// leader ETag salt.
	salt, ok := rep.Salt()
	if !ok {
		t.Fatal("leader salt never learned")
	}
	fapi := query.NewAPI(query.NewEngine(fdb, market.New()), rep.Clock)
	defer fapi.Shutdown()
	fapi.SetETagSalt(salt)
	fsrv := httptest.NewServer(fapi.Handler())
	defer fsrv.Close()

	from, to := t0.Format(time.RFC3339), now.Format(time.RFC3339)
	paths := []string{
		"/v1/summary",
		"/v1/stable?region=us-east-1&n=5&from=" + from + "&to=" + to,
		"/v1/volatile?region=us-east-1&n=5&from=" + from + "&to=" + to,
		"/v1/unavailability?kind=od&from=" + from + "&to=" + to + "&market=" + url.QueryEscape(ids[2].String()),
		"/v1/prices?from=" + from + "&to=" + to + "&market=" + url.QueryEscape(ids[1].String()),
		"/v1/outages?from=" + from + "&to=" + to + "&market=" + url.QueryEscape(ids[2].String()),
		"/v1/fallback?n=3&from=" + from + "&to=" + to + "&market=" + url.QueryEscape(ids[2].String()),
	}
	for _, path := range paths {
		ls, lbody, letag := fetch(t, srv.URL+path, "", "")
		fs, fbody, fetag := fetch(t, fsrv.URL+path, "", "")
		if ls != http.StatusOK {
			t.Fatalf("%s: leader status %d: %s", path, ls, lbody)
		}
		if fs != ls || fbody != lbody {
			t.Errorf("%s: follower body diverged\nleader:   %d %.200s\nfollower: %d %.200s", path, ls, lbody, fs, fbody)
		}
		if letag == "" || fetag != letag {
			t.Errorf("%s: ETag diverged: leader %q follower %q", path, letag, fetag)
		}
		// The point of salt+clock adoption: a leader-minted validator
		// revalidates on the follower.
		if s, _, _ := fetch(t, fsrv.URL+path, "", letag); s != http.StatusNotModified {
			t.Errorf("%s: follower answered %d to the leader's ETag, want 304", path, s)
		}
	}

	batch := fmt.Sprintf(`{"queries":[{"kind":"stable","region":"us-east-1","n":5,"from":%q,"to":%q},{"kind":"summary"},{"kind":"unavailability","market":%q,"window":"24h"}]}`,
		from, to, ids[2].String())
	ls, lbody, letag := fetch(t, srv.URL+"/v2/query", batch, "")
	fs, fbody, fetag := fetch(t, fsrv.URL+"/v2/query", batch, "")
	if ls != http.StatusOK || fs != ls || fbody != lbody {
		t.Errorf("/v2/query: batch diverged\nleader:   %d %.200s\nfollower: %d %.200s", ls, lbody, fs, fbody)
	}
	if letag == "" || fetag != letag {
		t.Errorf("/v2/query: ETag diverged: leader %q follower %q", letag, fetag)
	}
	if s, _, _ := fetch(t, fsrv.URL+"/v2/query", batch, letag); s != http.StatusNotModified {
		t.Errorf("/v2/query: follower answered %d to the leader's batch ETag, want 304", s)
	}
}

// fetch GETs (or, with a body, POSTs) one URL and returns status, body,
// and ETag.
func fetch(t *testing.T, u, body, ifNoneMatch string) (int, string, string) {
	t.Helper()
	var (
		req *http.Request
		err error
	)
	if body == "" {
		req, err = http.NewRequest(http.MethodGet, u, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, u, strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", u, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header.Get("ETag")
}
