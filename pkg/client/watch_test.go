package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

var (
	watchT0  = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	watchMkt = market.SpotID{Zone: "us-east-1a", Type: "c3.large", Product: market.ProductLinux}
)

// watchServer serves the real query API over a live store.
func watchServer(t *testing.T) (*httptest.Server, *store.Store, *query.API) {
	t.Helper()
	db := store.New()
	a := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return watchT0.Add(24 * time.Hour) })
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(func() { a.Shutdown(); srv.Close() })
	return srv, db, a
}

func TestWatchDeliversTypedEvents(t *testing.T) {
	srv, db, _ := watchServer(t)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), WatchOptions{
		Region: "us-east-1",
		Kinds:  []api.EventKind{api.EventRevocation, api.EventOutageOpen},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	db.AppendSpike(store.SpikeEvent{At: watchT0, Market: watchMkt, Ratio: 2.0})                           // filtered out
	db.AppendRevocation(store.RevocationRecord{At: watchT0, Market: watchMkt, Bid: 0.3, Held: time.Hour}) // delivered
	db.AppendProbe(store.ProbeRecord{At: watchT0, Market: watchMkt, Kind: store.ProbeOnDemand, Rejected: true})

	want := []api.EventKind{api.EventHello, api.EventRevocation, api.EventOutageOpen}
	for i, k := range want {
		select {
		case ev := <-w.Events():
			if ev.Kind != k {
				t.Fatalf("event %d kind = %s, want %s", i, ev.Kind, k)
			}
			if k == api.EventRevocation && (ev.Revocation == nil || ev.Revocation.Held != time.Hour) {
				t.Fatalf("revocation payload = %+v", ev.Revocation)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s event within 5s", k)
		}
	}
	if w.LastEventID() == "" {
		t.Error("LastEventID empty after data events")
	}
	w.Close()
	if _, ok := <-w.Events(); ok {
		// Drain any buffered frames; the channel must end up closed.
		for range w.Events() {
		}
	}
	if err := w.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
}

func TestWatchRejectsBadScope(t *testing.T) {
	srv, _, _ := watchServer(t)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Watch(context.Background(), WatchOptions{Market: "garbage"})
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeBadMarket {
		t.Fatalf("Watch(bad market) error = %v, want %s envelope", err, api.CodeBadMarket)
	}
}

// killingWriter aborts the connection after a fixed number of SSE frames,
// simulating a flaky network path.
type killingWriter struct {
	http.ResponseWriter
	frames *int
	limit  int
}

func (k *killingWriter) Write(b []byte) (int, error) {
	n, err := k.ResponseWriter.Write(b)
	*k.frames += bytes.Count(b[:n], []byte("\n\n"))
	if *k.frames >= k.limit {
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

// The acceptance test: a stream killed repeatedly mid-flight, with
// ingestion running throughout, must deliver every event exactly once
// through auto-reconnect + resume.
func TestWatchKillAndReconnectLosesNothing(t *testing.T) {
	db := store.New()
	a := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return watchT0.Add(24 * time.Hour) })
	defer a.Shutdown()
	inner := a.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/watch" {
			frames := 0
			inner.ServeHTTP(&killingWriter{ResponseWriter: w, frames: &frames, limit: 4}, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), WatchOptions{
		Kinds:      []api.EventKind{api.EventSpike},
		MinBackoff: time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		Buffer:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Ingest while the stream keeps dying: every spike carries its index
	// in Ratio.
	const total = 60
	go func() {
		for i := 1; i <= total; i++ {
			db.AppendSpike(store.SpikeEvent{
				At:     watchT0.Add(time.Duration(i) * time.Minute),
				Market: watchMkt,
				Ratio:  float64(i),
			})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var got []int
	deadline := time.After(30 * time.Second)
	for len(got) < total {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch ended early: %v (got %d/%d)", w.Err(), len(got), total)
			}
			if ev.Kind != api.EventSpike {
				continue // hello frames from each reconnect
			}
			got = append(got, int(ev.Spike.Ratio))
		case <-deadline:
			t.Fatalf("timed out with %d/%d events (reconnects=%d)", len(got), total, w.Reconnects())
		}
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("event %d = spike #%v, want #%d — lost or duplicated across reconnects (got %v)", i, v, i+1, got)
		}
	}
	if w.Reconnects() == 0 {
		t.Error("stream was never killed; the test proved nothing")
	}
}

// A server-reported lagged stream reconnects and resumes from the lagged
// position.
func TestWatchLaggedReconnectsWithResume(t *testing.T) {
	var connects atomic.Int64
	var resumedFrom atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := connects.Add(1)
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		if n == 1 {
			fmt.Fprintf(w, "event: hello\ndata: {\"kind\":\"hello\",\"hello\":{\"gen\":1,\"resume\":\"none\"}}\n\n")
			fmt.Fprintf(w, "id: tok-1\nevent: spike\ndata: {\"kind\":\"spike\",\"seq\":1,\"gen\":1}\n\n")
			fmt.Fprintf(w, "id: tok-1\nevent: lagged\ndata: {\"kind\":\"lagged\",\"lagged\":{\"gen\":1}}\n\n")
			fl.Flush()
			return // server closes after the terminal lagged frame
		}
		resumedFrom.Store(r.Header.Get(api.HeaderLastEventID))
		fmt.Fprintf(w, "event: hello\ndata: {\"kind\":\"hello\",\"hello\":{\"gen\":2,\"resume\":\"replay\"}}\n\n")
		fmt.Fprintf(w, "id: tok-2\nevent: spike\ndata: {\"kind\":\"spike\",\"seq\":2,\"gen\":2}\n\n")
		fl.Flush()
		// Hold the connection open until the client goes away.
		<-r.Context().Done()
	}))
	defer stub.Close()

	c, err := New(stub.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), WatchOptions{MinBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var kinds []api.EventKind
	deadline := time.After(10 * time.Second)
	for len(kinds) < 5 {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch ended: %v (saw %v)", w.Err(), kinds)
			}
			kinds = append(kinds, ev.Kind)
			if ev.Kind == api.EventSpike && ev.Seq == 2 {
				// Resumed stream delivered the post-lag event.
				if got := resumedFrom.Load(); got != "tok-1" {
					t.Fatalf("reconnect resumed from %v, want tok-1", got)
				}
				if w.Lagged() != 1 {
					t.Fatalf("Lagged() = %d, want 1", w.Lagged())
				}
				return
			}
		case <-deadline:
			t.Fatalf("timed out; saw %v", kinds)
		}
	}
}

// A capped server's 429 is retried after Retry-After.
func TestWatch429RetriesAfterHint(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set(api.HeaderRetryAfter, "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"code":"overloaded","message":"full"}`)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "event: hello\ndata: {\"kind\":\"hello\",\"hello\":{\"gen\":1,\"resume\":\"none\"}}\n\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer stub.Close()

	c, err := New(stub.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), WatchOptions{})
	if err != nil {
		t.Fatalf("Watch should have retried the 429: %v", err)
	}
	defer w.Close()
	select {
	case ev := <-w.Events():
		if ev.Kind != api.EventHello {
			t.Fatalf("first event = %s, want hello", ev.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hello after 429 retry")
	}
	if calls.Load() < 2 {
		t.Fatalf("server saw %d calls, want the retry", calls.Load())
	}
}

// flakyWriter aborts its stream once limit frames are written (0: never),
// and before writing anything once the link is down.
type flakyWriter struct {
	http.ResponseWriter
	down          *atomic.Bool
	frames, limit int
}

func (f *flakyWriter) Write(b []byte) (int, error) {
	if f.down.Load() {
		panic(http.ErrAbortHandler)
	}
	n, err := f.ResponseWriter.Write(b)
	if f.frames += bytes.Count(b[:n], []byte("\n\n")); f.limit > 0 && f.frames >= f.limit {
		f.Flush()
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (f *flakyWriter) Flush() { f.ResponseWriter.(http.Flusher).Flush() }

// The watch contract end to end, against an oracle of everything appended.
// One writer appends spikes, one round each, so the store generation after
// each append names that spike. In a seeded order the stream is killed
// every few frames, partitioned while the writer overruns the feed's ring,
// and the server restarts from disk, quiet or with records landing before
// the watch reattaches. The consumer must see the spikes in append order,
// each at most once, and every gap must be one resync frame whose
// generation is exactly where the stream then continues.
func TestWatchMatchesAppendOracleAcrossGapsAndRestarts(t *testing.T) {
	const ring = 32768 // the store feed's ring capacity
	type node struct {
		db *store.Store
		a  *query.API
	}
	dir := t.TempDir()
	open := func() *node {
		db, err := store.Open(dir, store.PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return watchT0.Add(24 * time.Hour) })
		a.SetETagSalt(db.Persister().Salt())
		return &node{db, a}
	}
	stop := func(n *node) {
		n.a.Shutdown()
		if err := n.db.Persister().Close(); err != nil {
			t.Fatal(err)
		}
	}
	var cur atomic.Pointer[node]
	var down atomic.Bool
	var killAt atomic.Int64
	cur.Store(open())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "partitioned", http.StatusServiceUnavailable)
			return
		}
		cur.Load().a.Handler().ServeHTTP(&flakyWriter{ResponseWriter: w, down: &down, limit: int(killAt.Load())}, r)
	}))
	defer srv.Close()
	defer func() { stop(cur.Load()) }()

	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), WatchOptions{MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond, Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var mu sync.Mutex
	var got []api.StreamEvent
	go func() {
		for ev := range w.Events() {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		}
	}()
	frames := func() []api.StreamEvent {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
	waitFor := func(what string, done func([]api.StreamEvent) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !done(frames()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	var gens []uint64 // gens[k] is the generation spike #k+1 landed at
	appendSpikes := func(n int) {
		db := cur.Load().db
		for ; n > 0; n-- {
			db.AppendSpike(store.SpikeEvent{At: watchT0.Add(time.Duration(len(gens)) * time.Second), Market: watchMkt, Ratio: float64(len(gens) + 1)})
			gens = append(gens, db.GlobalGeneration())
		}
	}
	// replay holds the consumer's frames to the oracle: at is the index of
	// the last spike they account for, err the first frame that breaks the
	// contract.
	replay := func(fs []api.StreamEvent) (at, resyncs, gaps int, err error) {
		at = -1
		for _, f := range fs {
			switch f.Kind {
			case api.EventSpike:
				if at+1 >= len(gens) || f.Gen != gens[at+1] || f.Spike.Ratio != float64(at+2) {
					return at, resyncs, gaps, fmt.Errorf("after spike #%d the consumer got spike #%v at generation %d: lost, duplicated or reordered", at+1, f.Spike.Ratio, f.Gen)
				}
				at++
			case api.EventResync:
				resyncs++
				j := sort.Search(len(gens), func(k int) bool { return gens[k] > f.Gen }) - 1
				if j < at || (j >= 0 && gens[j] != f.Gen) {
					return at, resyncs, gaps, fmt.Errorf("resync to generation %d after spike #%d: not a position at or past the consumer's", f.Gen, at+1)
				}
				if j > at {
					gaps++
				}
				at = j
			}
		}
		return at, resyncs, gaps, nil
	}
	caughtUp := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			at, _, _, err := replay(frames())
			if err != nil {
				t.Fatal(err)
			}
			if at == len(gens)-1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out with the consumer accounting for %d of %d spikes (an unannounced gap?)", at+1, len(gens))
			}
		}
	}
	// restart stops the node and reopens it from disk with cold records
	// appended before the watch may reattach, and checks how the
	// reattaching stream says it resumed.
	restart := func(cold int, resume string) {
		t.Helper()
		down.Store(true)
		stop(cur.Load())
		cur.Store(open())
		appendSpikes(cold)
		hellos := func(fs []api.StreamEvent) (hs []api.StreamEvent) {
			for _, f := range fs {
				if f.Kind == api.EventHello {
					hs = append(hs, f)
				}
			}
			return hs
		}
		before := len(hellos(frames()))
		down.Store(false)
		waitFor("the watch to reattach", func(fs []api.StreamEvent) bool { return len(hellos(fs)) > before })
		if h := hellos(frames())[before]; h.Hello.Resume != resume {
			t.Fatalf("after a restart with %d cold records the stream resumed %q, want %q", cold, h.Hello.Resume, resume)
		}
	}

	rng := rand.New(rand.NewSource(31))
	steps := []string{"burst", "burst", "burst", "burst", "burst", "burst", "overrun", "overrun", "cold restart", "cold restart", "quiet restart"}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	wantGaps := 0
	for _, step := range steps {
		caughtUp()
		switch step {
		case "burst": // the stream dies every few frames
			killAt.Store(int64(2 + rng.Intn(6)))
			appendSpikes(1 + rng.Intn(40))
		case "overrun": // partitioned while the ring overwrites the consumer's position
			down.Store(true)
			appendSpikes(ring + 1 + rng.Intn(100))
			down.Store(false)
			wantGaps++
		case "cold restart":
			restart(1+rng.Intn(20), "resync")
			wantGaps++
		case "quiet restart":
			restart(0, "live")
		}
	}
	appendSpikes(10)
	caughtUp()

	_, resyncs, gaps, _ := replay(frames())
	t.Logf("%d spikes, %d reconnects, %d resyncs", len(gens), w.Reconnects(), resyncs)
	if gaps != wantGaps || resyncs != wantGaps {
		t.Fatalf("%d resync frames over %d gaps, want one for each of the %d overruns and cold restarts", resyncs, gaps, wantGaps)
	}
	if w.Reconnects() <= uint64(len(steps)) {
		t.Errorf("%d reconnects over %d steps: the bursts did not kill the stream", w.Reconnects(), len(steps))
	}
}
