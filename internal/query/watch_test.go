package query

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// sseClient reads one /v2/watch stream frame by frame.
type sseClient struct {
	t      *testing.T
	resp   *http.Response
	br     *bufio.Reader
	lastID string
}

// openWatch connects to /v2/watch; params may be nil, lastEventID "".
func openWatch(t *testing.T, srv *httptest.Server, params url.Values, lastEventID string) *sseClient {
	t.Helper()
	u := srv.URL + "/v2/watch"
	if params != nil {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set(api.HeaderLastEventID, lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch status = %d body=%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	c := &sseClient{t: t, resp: resp, br: bufio.NewReader(resp.Body)}
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() { c.resp.Body.Close() }

// next reads one frame; it fails the test on timeout and returns ok=false
// on clean stream end.
func (c *sseClient) next(timeout time.Duration) (api.StreamEvent, bool) {
	c.t.Helper()
	type frame struct {
		ev  api.StreamEvent
		ok  bool
		err error
	}
	ch := make(chan frame, 1)
	go func() {
		var ev api.StreamEvent
		var sawData bool
		for {
			line, err := c.br.ReadString('\n')
			if err != nil {
				ch <- frame{err: err}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "" && sawData:
				ch <- frame{ev: ev, ok: true}
				return
			case strings.HasPrefix(line, "id: "):
				ev.ID = strings.TrimPrefix(line, "id: ")
				c.lastID = ev.ID
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					ch <- frame{err: err}
					return
				}
				sawData = true
			}
		}
	}()
	select {
	case f := <-ch:
		if f.err != nil {
			if f.err == io.EOF || strings.Contains(f.err.Error(), "closed") {
				return api.StreamEvent{}, false
			}
			c.t.Fatalf("read SSE frame: %v", f.err)
		}
		return f.ev, f.ok
	case <-time.After(timeout):
		c.t.Fatalf("no SSE frame within %v", timeout)
		return api.StreamEvent{}, false
	}
}

// expectHello consumes the opening frame.
func (c *sseClient) expectHello(resume string) api.StreamEvent {
	c.t.Helper()
	ev, ok := c.next(5 * time.Second)
	if !ok || ev.Kind != api.EventHello {
		c.t.Fatalf("first frame = %+v, want hello", ev)
	}
	if ev.Hello == nil || ev.Hello.Resume != resume {
		c.t.Fatalf("hello = %+v, want resume %q", ev.Hello, resume)
	}
	return ev
}

func TestWatchStreamsTypedEvents(t *testing.T) {
	srv, db := testServer(t)
	c := openWatch(t, srv, nil, "")
	c.expectHello("none")

	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Price: 0.9, Ratio: 1.5, Probed: true})
	ev, ok := c.next(5 * time.Second)
	if !ok || ev.Kind != api.EventSpike {
		t.Fatalf("event = %+v, want spike", ev)
	}
	if ev.Market != mktA.String() || ev.Spike == nil || ev.Spike.Ratio != 1.5 {
		t.Fatalf("spike payload = %+v", ev.Spike)
	}
	if ev.ID == "" || ev.Seq == 0 || ev.Gen == 0 {
		t.Fatalf("event missing resume identity: %+v", ev)
	}

	db.AppendProbe(store.ProbeRecord{At: t0.Add(2 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "ICE"})
	probe, ok := c.next(5 * time.Second)
	if !ok || probe.Kind != api.EventProbe || probe.Probe == nil {
		t.Fatalf("event = %+v, want probe", probe)
	}
	if probe.Probe.Contract != "on-demand" || !probe.Probe.Rejected || probe.Probe.Code != "ICE" {
		t.Fatalf("probe payload = %+v", probe.Probe)
	}
	open, ok := c.next(5 * time.Second)
	if !ok || open.Kind != api.EventOutageOpen || open.Outage == nil {
		t.Fatalf("event = %+v, want outage-open", open)
	}
}

func TestWatchScopeAndKindFilters(t *testing.T) {
	srv, db := testServer(t)
	params := url.Values{"region": {"us-east-1"}, "kinds": {"spike,revocation"}}
	c := openWatch(t, srv, params, "")
	c.expectHello("none")

	other := market.SpotID{Zone: "eu-west-1a", Type: "c3.large", Product: market.ProductLinux}
	db.AppendSpike(store.SpikeEvent{At: t0, Market: other, Ratio: 2.0})                          // wrong region
	db.AppendProbe(store.ProbeRecord{At: t0, Market: mktA, Kind: store.ProbeSpot})               // wrong kind
	db.AppendRevocation(store.RevocationRecord{At: t0, Market: mktA, Bid: 0.5, Held: time.Hour}) // match

	ev, ok := c.next(5 * time.Second)
	if !ok || ev.Kind != api.EventRevocation {
		t.Fatalf("event = %+v, want the matching revocation only", ev)
	}
	if ev.Revocation == nil || ev.Revocation.Held != time.Hour {
		t.Fatalf("revocation payload = %+v", ev.Revocation)
	}
}

func TestWatchBadParams(t *testing.T) {
	srv, _ := testServer(t)
	for _, tc := range []struct {
		params url.Values
		code   string
	}{
		{url.Values{"market": {"not-a-market"}}, api.CodeBadMarket},
		{url.Values{"market": {mktA.String()}, "region": {"us-east-1"}}, api.CodeBadParam},
		{url.Values{"kinds": {"spike,nope"}}, api.CodeBadParam},
		{url.Values{"since": {"1h"}}, api.CodeBadParam},
		{url.Values{"lastEventId": {"garbage"}}, api.CodeBadParam},
	} {
		resp, err := http.Get(srv.URL + "/v2/watch?" + tc.params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: status = %d, want 400", tc.params, resp.StatusCode)
			continue
		}
		var aerr api.Error
		if err := json.Unmarshal(body, &aerr); err != nil || aerr.Code != tc.code {
			t.Errorf("%v: error = %s, want code %s", tc.params, body, tc.code)
		}
	}
}

// The prober's price sweep against an open stream: thousands of one-event
// rounds land far faster than the handler relays them. The stream is behind
// for a while, never cut: the client sees every frame once, in order, and
// no lagged frame.
func TestWatchPriceSweepIsNeverCutOff(t *testing.T) {
	srv, db := testServer(t)
	c := openWatch(t, srv, nil, "")
	c.expectHello("none")

	const sweep = 8000
	for i := 0; i < sweep; i++ {
		id := market.SpotID{Zone: "us-east-1a", Type: market.InstanceType(fmt.Sprintf("t%d.large", i)), Product: market.ProductLinux}
		db.RecordPrice(id, store.PricePoint{At: t0.Add(time.Hour), Price: 0.1})
	}
	for i := 0; i < sweep; i++ {
		ev, ok := c.next(5 * time.Second)
		if !ok || ev.Kind != api.EventPrice || ev.Seq != uint64(i+1) {
			t.Fatalf("frame %d = (%v, seq %d, ok %v), want price at seq %d", i, ev.Kind, ev.Seq, ok, i+1)
		}
	}
	if st := db.Feed().Stats(); st.Dropped != 0 || st.Lagged != 0 {
		t.Fatalf("feed stats = %+v, want nothing dropped or lagged", st)
	}
}

// The acceptance path: kill the stream, reconnect with Last-Event-ID,
// and observe every event exactly once across the break.
func TestWatchResumeExactAcrossReconnect(t *testing.T) {
	srv, db := testServer(t)
	c := openWatch(t, srv, nil, "")
	c.expectHello("none")

	// Burst 1 arrives live.
	for i := 0; i < 5; i++ {
		db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Duration(i) * time.Minute), Market: mktA, Ratio: 1.1 + float64(i)})
	}
	var seqs []uint64
	for i := 0; i < 5; i++ {
		ev, ok := c.next(5 * time.Second)
		if !ok {
			t.Fatal("stream ended early")
		}
		seqs = append(seqs, ev.Seq)
	}
	resumeID := c.lastID
	c.close() // kill the connection

	// Burst 2 lands while disconnected.
	for i := 5; i < 10; i++ {
		db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Duration(i) * time.Minute), Market: mktA, Ratio: 1.1 + float64(i)})
	}

	c2 := openWatch(t, srv, nil, resumeID)
	c2.expectHello("replay")
	for i := 5; i < 10; i++ {
		ev, ok := c2.next(5 * time.Second)
		if !ok {
			t.Fatal("resumed stream ended early")
		}
		seqs = append(seqs, ev.Seq)
	}
	// Burst 3 arrives live on the resumed stream.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(10 * time.Minute), Market: mktA, Ratio: 11.1})
	ev, ok := c2.next(5 * time.Second)
	if !ok {
		t.Fatal("resumed stream ended early")
	}
	seqs = append(seqs, ev.Seq)

	for i, s := range seqs {
		if want := seqs[0] + uint64(i); s != want {
			t.Fatalf("event %d seq = %d, want %d — lost or duplicated across reconnect (all: %v)", i, s, want, seqs)
		}
	}
}

func TestWatchResumeUpToDateAttachesLive(t *testing.T) {
	srv, db := testServer(t)
	c := openWatch(t, srv, nil, "")
	c.expectHello("none")
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 1.2})
	if ev, ok := c.next(5 * time.Second); !ok || ev.Kind != api.EventSpike {
		t.Fatalf("event = %+v, want spike", ev)
	}
	resumeID := c.lastID
	c.close()

	c2 := openWatch(t, srv, nil, resumeID)
	c2.expectHello("live")
}

// A gap the ring cannot replay is announced, not rebuilt: a token from
// another process life gets one resync frame and none of the history, the
// frame's id is where the stream continues, and a reconnect with that id
// resumes exactly.
func TestWatchResyncFallback(t *testing.T) {
	srv, db := testServer(t)

	// History recorded with no subscribers: no stream ever replays it.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 1.3})
	db.AppendRevocation(store.RevocationRecord{At: t0.Add(90 * time.Minute), Market: mktA, Bid: 0.4, Held: time.Hour})

	// Epoch deadbeef never matches a UnixNano boot epoch.
	foreign := fmt.Sprintf("%x-%x-%x-%x", 0xdeadbeef, 1, 1, uint64(t0.UnixNano()))
	c := openWatch(t, srv, nil, foreign)
	c.expectHello("resync")
	resync, ok := c.next(5 * time.Second)
	if gen := db.GlobalGeneration(); !ok || resync.Kind != api.EventResync || resync.ID == "" || resync.Gen != gen {
		t.Fatalf("frame = %+v, want a resync marker with an id, at generation %d", resync, gen)
	}
	db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktA, Ratio: 9.9})
	live, ok := c.next(5 * time.Second)
	if !ok || live.Kind != api.EventSpike || live.Spike.Ratio != 9.9 {
		t.Fatalf("frame = %+v, want the live spike and no replayed history", live)
	}
	c.close()

	c2 := openWatch(t, srv, nil, resync.ID)
	c2.expectHello("replay")
	if again, ok := c2.next(5 * time.Second); !ok || again.Seq != live.Seq {
		t.Fatalf("frame = %+v, want the live spike (seq %d) replayed from the resync position", again, live.Seq)
	}
}

func TestWatchSubscriberCapAnswers429(t *testing.T) {
	db := store.New()
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0 })
	a.SetWatchLimit(1)
	capped := httptest.NewServer(a.Handler())
	defer capped.Close()
	defer a.Shutdown()

	c := openWatch(t, sseURL(capped.URL), nil, "")
	c.expectHello("none")

	resp, err := http.Get(capped.URL + "/v2/watch")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get(api.HeaderRetryAfter) == "" {
		t.Error("429 missing Retry-After")
	}
	var aerr api.Error
	if err := json.Unmarshal(body, &aerr); err != nil || aerr.Code != api.CodeOverloaded {
		t.Fatalf("429 body = %s, want %s envelope", body, api.CodeOverloaded)
	}
	if aerr.Details["cap"] != "1" {
		t.Errorf("cap detail = %q, want 1", aerr.Details["cap"])
	}

	// Closing the first stream frees the slot.
	c.close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(capped.URL + "/v2/watch")
		if err != nil {
			t.Fatal(err)
		}
		st := resp.StatusCode
		resp.Body.Close()
		if st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed; still %d", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWatchShutdownClosesStreams(t *testing.T) {
	db := store.New()
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0 })
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	c := openWatch(t, sseURL(srv.URL), nil, "")
	c.expectHello("none")
	a.Shutdown()
	// The stream must end promptly.
	if ev, ok := c.next(5 * time.Second); ok {
		t.Fatalf("frame after shutdown: %+v", ev)
	}
	// New subscriptions are refused.
	resp, err := http.Get(srv.URL + "/v2/watch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-shutdown watch status = %d, want 429", resp.StatusCode)
	}
}

// TestWatchShutdownUnblocksAStalledStream: a consumer that stops reading
// stalls its stream's handler in a write once the socket buffers fill.
// Shutdown must cut that write off after watchShutdownGrace, so the server
// drains inside its shutdown deadline instead of waiting it out — also
// through the metrics middleware.
func TestWatchShutdownUnblocksAStalledStream(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		t.Run(fmt.Sprint("instrumented=", instrumented), func(t *testing.T) {
			stalledStreamShutdown(t, instrumented)
		})
	}
}

func stalledStreamShutdown(t *testing.T, instrumented bool) {
	db := store.New()
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0 })
	if instrumented {
		a.EnableMetrics(obs.NewRegistry())
	}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v2/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // never read: the consumer has stalled
	// Rounds small enough for the handler to keep up with the feed's ring
	// until the socket buffers are full, then enough more to be sure.
	batch := make([]store.ProbeRecord, 500)
	for round := 0; round < 200; round++ {
		for i := range batch {
			batch[i] = store.ProbeRecord{At: t0.Add(time.Duration(round*len(batch)+i) * time.Second), Market: mktA,
				Kind: store.ProbeSpot, Code: strings.Repeat("x", 200)}
		}
		db.Appender(mktA).AppendProbes(batch)
		time.Sleep(time.Millisecond)
	}
	a.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("server shutdown with a stalled stream open: %v", err)
	}
}

func TestWatchHeartbeat(t *testing.T) {
	db := store.New()
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0 })
	a.watchHeartbeat = 50 * time.Millisecond
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	defer a.Shutdown()

	c := openWatch(t, sseURL(srv.URL), nil, "")
	c.expectHello("none")
	ev, ok := c.next(5 * time.Second)
	if !ok || ev.Kind != api.EventHeartbeat {
		t.Fatalf("frame = %+v, want heartbeat", ev)
	}

	// After a data event, heartbeats re-advertise its resume token so an
	// idle reconnect resumes exactly.
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 1.2})
	var dataID string
	for i := 0; i < 10; i++ {
		ev, ok := c.next(5 * time.Second)
		if !ok {
			t.Fatal("stream ended")
		}
		if ev.Kind == api.EventSpike {
			dataID = ev.ID
			continue
		}
		if ev.Kind == api.EventHeartbeat && dataID != "" {
			if c.lastID != dataID {
				t.Fatalf("heartbeat id = %q, want last data id %q", c.lastID, dataID)
			}
			return
		}
	}
	t.Fatal("no heartbeat after the data event")
}

func TestHealthEndpoint(t *testing.T) {
	srv, db := testServer(t)
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 1.2})

	resp, err := http.Get(srv.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health body %s: %v", body, err)
	}
	if h.Status != "ok" || h.Store.Mode != "memory" || !h.Store.Healthy {
		t.Fatalf("health = %+v, want ok/memory/healthy", h)
	}
	if h.Store.Markets != 1 || h.Store.Generation == 0 {
		t.Errorf("health store = %+v, want 1 market and nonzero generation", h.Store)
	}
	if h.Watch.Cap == 0 {
		t.Errorf("health watch = %+v, want a nonzero cap", h.Watch)
	}
}

func TestHealthDurableMode(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Persister().Close()
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0 })
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Store.Mode != "durable" || !h.Store.Healthy || h.Status != "ok" {
		t.Fatalf("health = %+v, want ok/durable/healthy", h)
	}
}

// getHealth fetches and decodes GET /v2/health.
func getHealth(t *testing.T, baseURL string) api.Health {
	t.Helper()
	resp, err := http.Get(baseURL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d body=%s", resp.StatusCode, body)
	}
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health body %s: %v", body, err)
	}
	return h
}

// A follower whose leader subscription is down keeps serving but must
// say "degraded"; a promoted node is disconnected by design and stays
// "ok".
func TestHealthDegradedFollowerDisconnected(t *testing.T) {
	db := store.New()
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0 })
	defer a.Shutdown()
	rep := &api.HealthReplication{Role: "follower", Leader: "http://leader", Connected: false}
	a.SetReplication(func() *api.HealthReplication { return rep })
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	h := getHealth(t, srv.URL)
	if h.Status != "degraded" {
		t.Fatalf("disconnected follower health = %+v, want degraded", h)
	}
	if h.Replication == nil || h.Replication.Connected || h.Replication.Role != "follower" {
		t.Fatalf("replication arm = %+v, want disconnected follower", h.Replication)
	}
	if !h.Store.Healthy {
		t.Errorf("store arm = %+v; a stale follower's store is still healthy", h.Store)
	}

	rep = &api.HealthReplication{Role: "promoted", Leader: "http://leader", Connected: false}
	if h := getHealth(t, srv.URL); h.Status != "ok" {
		t.Fatalf("promoted node health = %+v, want ok (disconnected by design)", h)
	}
}

// A durable store whose persister failed keeps answering queries from
// memory but reports degraded with the sticky error.
func TestHealthDegradedPersisterError(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 1.2})
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0 })
	defer a.Shutdown()
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	// Simulated crash: the persister's error is sticky from here on.
	db.Persister().Abandon()

	h := getHealth(t, srv.URL)
	if h.Status != "degraded" || h.Store.Mode != "durable" {
		t.Fatalf("post-crash health = %+v, want degraded/durable", h)
	}
	if h.Store.Healthy || h.Store.Error == "" {
		t.Fatalf("store arm = %+v, want unhealthy with the persister error", h.Store)
	}

	// Queries still answer: durability is fail-stop, reads are not.
	resp, err := http.Get(srv.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("summary on degraded store = %d, want 200", resp.StatusCode)
	}
}

func TestCacheControlHintsWithRevalidation(t *testing.T) {
	db := store.New()
	a := NewAPI(NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	a.SetCacheTTL(90 * time.Second)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))

	u := srv.URL + "/v1/unavailability?" + url.Values{
		"market": {mktA.String()},
		"from":   {t0.Format(time.RFC3339)},
		"to":     {t0.Add(24 * time.Hour).Format(time.RFC3339)},
	}.Encode()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=90" {
		t.Fatalf("Cache-Control = %q, want max-age=90", cc)
	}
	etag := resp.Header.Get(api.HeaderETag)
	if etag == "" {
		t.Fatal("no ETag on the hinted response")
	}

	// Revalidation still works, and the 304 carries the hint too.
	req, _ := http.NewRequest(http.MethodGet, u, nil)
	req.Header.Set(api.HeaderIfNoneMatch, etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp2.StatusCode)
	}
	if cc := resp2.Header.Get("Cache-Control"); cc != "max-age=90" {
		t.Fatalf("304 Cache-Control = %q, want max-age=90", cc)
	}

	// v2 batches carry the hint as well.
	b, err := http.Post(srv.URL+"/v2/query", "application/json",
		strings.NewReader(`{"queries":[{"kind":"summary"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, b.Body)
	b.Body.Close()
	if cc := b.Header.Get("Cache-Control"); cc != "max-age=90" {
		t.Fatalf("/v2/query Cache-Control = %q, want max-age=90", cc)
	}

	// The watch stream must never advertise cacheability.
	c := openWatch(t, sseURL(srv.URL), nil, "")
	if cc := c.resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("watch Cache-Control = %q, want no-store", cc)
	}
	a.Shutdown()
}

// sseURL wraps a base URL for openWatch.
func sseURL(u string) *httptest.Server { return &httptest.Server{URL: u} }

func TestCacheControlDisabledByDefault(t *testing.T) {
	srv, db := testServer(t)
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 1.2})
	resp, err := http.Get(srv.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "" {
		t.Fatalf("Cache-Control = %q with no TTL configured, want none", cc)
	}
}

func TestWatchTokenRoundTrip(t *testing.T) {
	a := NewAPI(NewEngine(store.New(), market.New()), nil)
	at := time.Date(2015, 9, 2, 3, 4, 5, 6, time.UTC)
	tok := a.watchToken(42, 17, at)
	epoch, seq, gen, gotAt, ok := parseWatchToken(tok)
	if !ok {
		t.Fatalf("parseWatchToken(%q) failed", tok)
	}
	if epoch != uint64(a.epoch) || seq != 42 || gen != 17 || !gotAt.Equal(at) {
		t.Fatalf("round trip = (%d,%d,%d,%v)", epoch, seq, gen, gotAt)
	}
	for _, bad := range []string{"", "x", "1-2-3", "1-2-3-zz", "1-2-3-4-5"} {
		if _, _, _, _, ok := parseWatchToken(bad); ok {
			t.Errorf("parseWatchToken(%q) accepted", bad)
		}
	}
}

// FuzzWatchToken holds the resume-token parser, which reads the untrusted
// Last-Event-ID header: it never panics, every position's token parses
// back to that position, and an accepted token, rendered again, parses to
// the same values.
func FuzzWatchToken(f *testing.F) {
	f.Add("2a-11-7-1400001bc3580000", uint64(42), uint64(17), uint64(7), int64(1441152000000000000))
	f.Add("ffffffffffffffff-0-0-0", uint64(0), uint64(0), uint64(0), int64(0))
	f.Add("1-2-3-zz", uint64(1), uint64(1)<<63, uint64(0), int64(-1))
	f.Add("1-2-3-4-5", uint64(0), uint64(0), uint64(0), int64(0))
	f.Add("0x1-2-3-4", uint64(0), uint64(0), uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, tok string, salt, seq, gen uint64, nanos int64) {
		pos := store.Position{Salt: salt, Seq: seq, Gen: gen, Clock: time.Unix(0, nanos)}
		e, s, g, at, ok := parseWatchToken(pos.Token())
		if !ok || e != salt || s != seq || g != gen || !at.Equal(pos.Clock) {
			t.Fatalf("%+v: token %q parses to (%x,%x,%x,%v,%v)", pos, pos.Token(), e, s, g, at, ok)
		}
		e, s, g, at, ok = parseWatchToken(tok)
		if !ok {
			return
		}
		again := store.Position{Salt: e, Seq: s, Gen: g, Clock: at}.Token()
		e2, s2, g2, at2, ok := parseWatchToken(again)
		if !ok || e2 != e || s2 != s || g2 != g || !at2.Equal(at) {
			t.Fatalf("%q parses to (%x,%x,%x,%v); rendered again as %q it parses to (%x,%x,%x,%v,%v)", tok, e, s, g, at, again, e2, s2, g2, at2, ok)
		}
	})
}

// stopAt ends a follow stream at its first position after the opening one.
type stopAt struct{ positions int }

var errStop = errors.New("stop")

func (s *stopAt) Hello(store.Position) error { return nil }
func (s *stopAt) Snapshot() error            { return nil }
func (s *stopAt) Position(store.Position, uint64, uint64) error {
	s.positions++
	return errStop
}

// Accept: application/x-spotlight-log negotiates the follow stream on the
// same endpoint: it takes no filter, and a fresh one opens with a snapshot
// a follower rebuilds the store from.
func TestWatchFollowStream(t *testing.T) {
	srv, db := testServer(t)
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 1.2})
	db.AppendProbe(store.ProbeRecord{At: t0.Add(time.Hour), Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "ICE"})
	open := func(query string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v2/watch?"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", api.ContentTypeLog)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for _, param := range []string{"market=" + url.QueryEscape(mktA.String()), "region=us-east-1", "product=Linux%2FUNIX", "kinds=spike", "since=1h"} {
		resp := open(param)
		var aerr api.Error
		if err := json.NewDecoder(resp.Body).Decode(&aerr); err != nil || resp.StatusCode != http.StatusBadRequest || aerr.Code != api.CodeBadParam {
			t.Errorf("%s: status %d, error %+v (%v); want 400 %s", param, resp.StatusCode, aerr, err, api.CodeBadParam)
		}
	}

	resp := open("")
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != api.ContentTypeLog {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, ct)
	}
	follower, stop := store.New(), &stopAt{}
	if err := follower.Follow(resp.Body, stop); err != errStop {
		t.Fatalf("follow: %v", err)
	}
	var got, want bytes.Buffer
	if err := store.NewStreamWriter(&got, store.Position{}).Snapshot(follower, t0); err != nil {
		t.Fatal(err)
	}
	if err := store.NewStreamWriter(&want, store.Position{}).Snapshot(db, t0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the snapshot rebuilt an image of %d bytes, not the leader's %d:\n%q\nnot\n%q", got.Len(), want.Len(), got.Bytes(), want.Bytes())
	}
}
