package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

var (
	mktA = market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	t0   = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
)

// testService stands up a real API server over a seeded store.
func testService(t *testing.T) (*Client, *store.Store) {
	t.Helper()
	db := store.New()
	apiSrv := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	srv := httptest.NewServer(apiSrv.Handler())
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, db
}

func TestNewRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/relative/only"} {
		if _, err := New(bad, nil); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

func TestTypedV1Roundtrip(t *testing.T) {
	c, db := testService(t)
	ctx := context.Background()
	db.AppendProbe(store.ProbeRecord{At: t0, Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	db.AppendProbe(store.ProbeRecord{At: t0.Add(6 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand})
	db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Hour), Price: 0.42})

	unav, err := c.Unavailability(ctx, mktA.String(), "", api.Last(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if unav.Unavailability != 0.25 {
		t.Errorf("unavailability = %v, want 0.25", unav.Unavailability)
	}

	stable, err := c.Stable(ctx, "us-east-1", "", 3, api.Between(t0, t0.Add(24*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if len(stable) != 3 {
		t.Errorf("stable rows = %d, want 3", len(stable))
	}

	prices, err := c.Prices(ctx, mktA.String(), api.Last(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) != 1 || prices[0].Price != 0.42 {
		t.Errorf("prices = %+v", prices)
	}

	sums, err := c.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Region != "us-east-1" {
		t.Errorf("summary = %+v", sums)
	}
}

func TestBatchRoundtrip(t *testing.T) {
	c, db := testService(t)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})

	resp, err := c.Batch(context.Background(),
		api.Query{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: api.Last(24 * time.Hour)},
		api.Query{Kind: api.KindVolatile, Region: "us-east-1", N: 5, Window: api.Last(24 * time.Hour)},
		api.Query{Kind: api.KindSummary},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if got := resp.Results[1].Volatile; len(got) != 1 || got[0].Market != mktA.String() {
		t.Errorf("volatile = %+v", got)
	}
	if !resp.Now.Equal(t0.Add(24 * time.Hour)) {
		t.Errorf("now = %v", resp.Now)
	}
}

// TestConditionalRequests: with revalidation on, a repeated query is
// answered from the remembered body via a 304 — and a store append makes
// the next call fetch fresh data again.
func TestConditionalRequests(t *testing.T) {
	db := store.New()
	h := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) }).Handler()
	var (
		mu   sync.Mutex
		sent []string // each request's If-None-Match, in arrival order
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sent = append(sent, r.Header.Get(api.HeaderIfNoneMatch))
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	// lastSent is the If-None-Match of the latest request.
	lastSent := func() string {
		mu.Lock()
		defer mu.Unlock()
		return sent[len(sent)-1]
	}
	c, err := New(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.EnableConditionalRequests()
	ctx := context.Background()
	db.AppendProbe(store.ProbeRecord{At: t0, Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	db.AppendProbe(store.ProbeRecord{At: t0.Add(6 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand})
	w := api.Between(t0, t0.Add(24*time.Hour))

	first, err := c.Unavailability(ctx, mktA.String(), "", w)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Unavailability(ctx, mktA.String(), "", w)
	if err != nil {
		t.Fatal(err)
	}
	if c.NotModifiedCount() != 1 {
		t.Fatalf("not-modified count = %d, want 1", c.NotModifiedCount())
	}
	if *second != *first {
		t.Errorf("revalidated response %+v != original %+v", second, first)
	}

	// An in-scope append must bypass the remembered body.
	db.AppendProbe(store.ProbeRecord{At: t0.Add(12 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	third, err := c.Unavailability(ctx, mktA.String(), "", w)
	if err != nil {
		t.Fatal(err)
	}
	if c.NotModifiedCount() != 1 {
		t.Errorf("append still served from conditional cache")
	}
	if third.Unavailability <= first.Unavailability {
		t.Errorf("fresh unavailability = %v, want > %v", third.Unavailability, first.Unavailability)
	}

	// Batches revalidate the same way, keyed by the request body: a
	// repeated body sends its tag, a different body sends none.
	q := api.Query{Kind: api.KindStable, Region: "us-east-1", N: 3, Window: w}
	if _, err := c.Batch(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Batch(ctx, q); err != nil {
		t.Fatal(err)
	}
	if c.NotModifiedCount() != 2 {
		t.Errorf("batch revalidation count = %d, want 2", c.NotModifiedCount())
	}
	q.N = 4
	if _, err := c.Batch(ctx, q); err != nil {
		t.Fatal(err)
	}
	if tag := lastSent(); tag != "" || c.NotModifiedCount() != 2 {
		t.Errorf("a different batch body sent If-None-Match %q (not-modified count %d, want 2)", tag, c.NotModifiedCount())
	}

	// So does advise: two different bodies never share a tag, a repeated
	// one revalidates.
	advise := func(n int) string {
		t.Helper()
		if _, err := c.Advise(ctx, api.AdviseRequest{AdviseConstraints: api.AdviseConstraints{N: n}, Window: w}); err != nil {
			t.Fatal(err)
		}
		return lastSent()
	}
	if tag := advise(3); tag != "" {
		t.Errorf("a first advise sent If-None-Match %q", tag)
	}
	if tag := advise(4); tag != "" || c.NotModifiedCount() != 2 {
		t.Errorf("a different advise body sent If-None-Match %q (not-modified count %d, want 2)", tag, c.NotModifiedCount())
	}
	if tag := advise(3); tag == "" || c.NotModifiedCount() != 3 {
		t.Errorf("a repeated advise sent If-None-Match %q (not-modified count %d, want 3)", tag, c.NotModifiedCount())
	}

	// A client that never enabled conditional requests sends no tag.
	plain, err := New(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	sent = sent[:0]
	mu.Unlock()
	for range 2 {
		if _, err := plain.Unavailability(ctx, mktA.String(), "", w); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Batch(ctx, q); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Advise(ctx, api.AdviseRequest{Window: w}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 6 || slices.ContainsFunc(sent, func(tag string) bool { return tag != "" }) || plain.NotModifiedCount() != 0 {
		t.Errorf("a plain client sent If-None-Match %q and served %d 304s", sent, plain.NotModifiedCount())
	}
}

// TestErrorEnvelopeSurfacing: service-side failures come back as
// *api.Error with the machine-readable code, both for v1 calls and for
// batch-level rejections.
func TestErrorEnvelopeSurfacing(t *testing.T) {
	c, _ := testService(t)
	ctx := context.Background()

	_, err := c.Stable(ctx, "us-east-1", "", 5, api.Window{Rel: "nonsense"})
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeBadWindow {
		t.Errorf("stable with bad window: err = %v, want *api.Error code %s", err, api.CodeBadWindow)
	}

	_, err = c.Unavailability(ctx, "garbage", "", api.Last(time.Hour))
	if !errors.As(err, &aerr) || aerr.Code != api.CodeBadMarket {
		t.Errorf("bad market: err = %v, want code %s", err, api.CodeBadMarket)
	}

	over := make([]api.Query, api.MaxBatchQueries+1)
	for i := range over {
		over[i] = api.Query{Kind: api.KindSummary}
	}
	_, err = c.Batch(ctx, over...)
	if !errors.As(err, &aerr) || aerr.Code != api.CodeTooManyQueries {
		t.Errorf("oversized batch: err = %v, want code %s", err, api.CodeTooManyQueries)
	}
}
