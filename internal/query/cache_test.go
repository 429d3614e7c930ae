package query

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// mktEU lives outside the us-east-1 scope of the cached queries below.
var mktEU = market.SpotID{Zone: "eu-west-1a", Type: "c3.2xlarge", Product: market.ProductLinux}

// tableAPI is an API over a fresh store whose clock reads *now, served
// through Handler() without a listener.
type tableAPI struct {
	e   *Engine
	db  *store.Store
	h   http.Handler
	now *time.Time
}

func newTableAPI(t *testing.T) *tableAPI {
	t.Helper()
	db := store.New()
	now := t0.Add(24 * time.Hour)
	e := NewEngine(db, market.New())
	a := NewAPI(e, func() time.Time { return now })
	t.Cleanup(a.Shutdown)
	return &tableAPI{e: e, db: db, h: a.Handler(), now: &now}
}

// get serves GET path?q and returns the recorder.
func (x *tableAPI) get(path string, q url.Values) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	x.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path+"?"+q.Encode(), nil))
	return w
}

// post serves POST path with body v and returns the recorder.
func (x *tableAPI) post(t *testing.T, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	x.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return w
}

// wantStats fails unless the table's counters read hits/misses.
func (x *tableAPI) wantStats(t *testing.T, step string, hits, misses uint64) {
	t.Helper()
	if h, m := x.e.CacheStats(); h != hits || m != misses {
		t.Errorf("%s: hits/misses = %d/%d, want %d/%d", step, h, m, hits, misses)
	}
}

func absWindow(extra url.Values) url.Values {
	q := window()
	for k, v := range extra {
		q[k] = v
	}
	return q
}

// TestStableCachePerShardInvalidation is the store-generation test: a
// stored region-scoped ranking survives appends to out-of-scope shards
// and stops matching — with a correct recomputation — after an append to
// an in-scope shard.
func TestStableCachePerShardInvalidation(t *testing.T) {
	x := newTableAPI(t)
	x.db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	q := absWindow(url.Values{"region": {"us-east-1"}, "n": {"1000"}})
	crossingsOf := func(w *httptest.ResponseRecorder, id market.SpotID) int {
		t.Helper()
		var rows []api.StableMarket
		if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Market == id.String() {
				return r.Crossings
			}
		}
		t.Fatalf("market %v missing from ranking", id)
		return 0
	}

	first := x.get("/v1/stable", q)
	x.wantStats(t, "first query", 0, 1)
	second := x.get("/v1/stable", q)
	x.wantStats(t, "identical repeat", 1, 1)
	if first.Body.String() != second.Body.String() || first.Header().Get(api.HeaderETag) != second.Header().Get(api.HeaderETag) {
		t.Errorf("a hit answered different bytes or tag")
	}

	// Appends to shards outside the us-east-1 scope keep the entry.
	x.db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktEU, Ratio: 3})
	x.db.AppendProbe(store.ProbeRecord{At: t0.Add(2 * time.Hour), Market: mktEU, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	x.get("/v1/stable", q)
	x.wantStats(t, "out-of-scope append", 2, 1)

	// An in-scope append misses and the recomputation sees it.
	x.db.AppendSpike(store.SpikeEvent{At: t0.Add(3 * time.Hour), Market: mktA, Ratio: 4})
	third := x.get("/v1/stable", q)
	x.wantStats(t, "in-scope append", 2, 2)
	if got := crossingsOf(third, mktA); got != 2 {
		t.Errorf("recomputed crossings = %d, want 2", got)
	}
}

// TestSummaryCacheGeneration: identical summary queries hit; any append
// anywhere misses (the summary's scope is the whole store); a different
// clock is a different key.
func TestSummaryCacheGeneration(t *testing.T) {
	x := newTableAPI(t)
	addOutage(x.db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))

	x.get("/v1/summary", nil)
	x.get("/v1/summary", nil)
	x.wantStats(t, "repeat", 1, 1)

	*x.now = x.now.Add(time.Hour) // a different clock is a different key
	x.get("/v1/summary", nil)
	x.wantStats(t, "clock moved", 1, 2)
	x.get("/v1/summary", nil) // and a repeat at the new instant hits
	x.wantStats(t, "repeat at the new instant", 2, 2)

	x.db.AppendProbe(store.ProbeRecord{At: t0.Add(7 * time.Hour), Market: mktEU, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	w := x.get("/v1/summary", nil)
	x.wantStats(t, "append anywhere", 2, 3)
	var sums []api.RegionSummary
	if err := json.Unmarshal(w.Body.Bytes(), &sums); err != nil {
		t.Fatal(err)
	}
	regions := make(map[string]bool)
	for _, s := range sums {
		regions[s.Region] = true
	}
	if !regions["eu-west-1"] {
		t.Errorf("recomputed summary missing the appended region: %+v", sums)
	}
}

// TestVolatileCachePerShardInvalidation: the volatility ranking is served
// from the table across out-of-scope appends and recomputed — including
// the revocation enrichment — after an in-scope append of any record kind.
func TestVolatileCachePerShardInvalidation(t *testing.T) {
	x := newTableAPI(t)
	x.db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	q := absWindow(url.Values{"region": {"us-east-1"}})

	first, second := x.get("/v1/volatile", q), x.get("/v1/volatile", q)
	x.wantStats(t, "repeat", 1, 1)
	if first.Body.String() != second.Body.String() {
		t.Errorf("a hit answered different bytes")
	}

	x.db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktEU, Ratio: 3})
	x.get("/v1/volatile", q)
	x.wantStats(t, "out-of-scope append", 2, 1)

	// An in-scope revocation misses, and the recomputation carries it.
	x.db.AppendRevocation(store.RevocationRecord{At: t0.Add(3 * time.Hour), Market: mktA, Bid: 1, Held: 2 * time.Hour})
	w := x.get("/v1/volatile", q)
	x.wantStats(t, "in-scope revocation", 2, 2)
	var rows []api.VolatileMarket
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[0].Market != mktA.String() || rows[0].Watches != 1 || rows[0].MeanHeld != 2*time.Hour {
		t.Errorf("recomputed volatile row = %+v, want mktA with one 2h watch", rows)
	}
}

// TestUnavailabilityCachePerMarket: per-market unavailability is keyed by
// the market's own shard generation — appends to other markets keep its
// entry; an append to the market misses.
func TestUnavailabilityCachePerMarket(t *testing.T) {
	x := newTableAPI(t)
	addOutage(x.db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	q := absWindow(url.Values{"market": {mktA.String()}})

	x.get("/v1/unavailability", q)
	x.get("/v1/unavailability", q)
	x.wantStats(t, "repeat", 1, 1)

	// A different contract kind is a different key.
	x.get("/v1/unavailability", absWindow(url.Values{"market": {mktA.String()}, "kind": {"spot"}}))
	x.wantStats(t, "spot kind", 1, 2)
	x.db.AppendProbe(store.ProbeRecord{At: t0.Add(8 * time.Hour), Market: mktB, Kind: store.ProbeOnDemand})
	x.get("/v1/unavailability", q)
	x.wantStats(t, "append to another market", 2, 2)

	// A new outage in the market changes the answer; the stale fraction
	// must not be served.
	x.db.AppendProbe(store.ProbeRecord{At: t0.Add(12 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	w := x.get("/v1/unavailability", q)
	x.wantStats(t, "append to the market", 2, 3)
	var u api.Unavailability
	if err := json.Unmarshal(w.Body.Bytes(), &u); err != nil {
		t.Fatal(err)
	}
	if u.Unavailability <= 0.25 {
		t.Errorf("recomputed unavailability = %v, want > 0.25 after the new outage", u.Unavailability)
	}
}

// TestSetCachingDisables: with caching off every request computes and the
// counters read zero; switched back on, repeats are served from the table.
func TestSetCachingDisables(t *testing.T) {
	x := newTableAPI(t)
	x.e.SetCaching(false)
	x.db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	q := absWindow(url.Values{"region": {"us-east-1"}})
	for i := 0; i < 3; i++ {
		if w := x.get("/v1/stable", q); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	x.wantStats(t, "caching off", 0, 0)
	x.e.SetCaching(true)
	x.get("/v1/summary", nil)
	x.get("/v1/summary", nil)
	x.wantStats(t, "caching back on", 1, 1)
}

// TestCacheRoutesDoNotShareEntries: one spec asked on a v1 route and in a
// /v2/query batch hashes to the same tag but renders different envelopes,
// and an advise spec differs again between /v2/query and /v2/advise; each
// route keeps its own entry.
func TestCacheRoutesDoNotShareEntries(t *testing.T) {
	x := newTableAPI(t)
	spec := api.Query{Kind: api.KindStable, Region: "us-east-1", Window: api.Between(t0, t0.Add(24*time.Hour))}
	v1 := x.get("/v1/stable", absWindow(url.Values{"region": {"us-east-1"}}))
	v2 := x.post(t, "/v2/query", api.BatchRequest{Queries: []api.Query{spec}})
	x.wantStats(t, "v1 then v2", 0, 2)
	if v1.Header().Get(api.HeaderETag) != v2.Header().Get(api.HeaderETag) {
		t.Errorf("the same spec hashed to different tags on two routes")
	}
	if v1.Body.String() == v2.Body.String() {
		t.Fatalf("the two routes rendered the same bytes: the test proves nothing")
	}
	if again := x.get("/v1/stable", absWindow(url.Values{"region": {"us-east-1"}})); again.Body.String() != v1.Body.String() {
		t.Errorf("v1 repeat answered the batch envelope: %s", again.Body)
	}
	x.wantStats(t, "v1 repeat", 1, 2)

	advise := api.Query{Kind: api.KindAdvise, Window: spec.Window, Advise: &api.AdviseConstraints{Regions: []string{"us-east-1"}}}
	batch := x.post(t, "/v2/query", api.BatchRequest{Queries: []api.Query{advise}})
	single := x.post(t, "/v2/advise", api.AdviseRequest{AdviseConstraints: *advise.Advise, Window: advise.Window})
	x.wantStats(t, "advise on two routes", 1, 4)
	if batch.Body.String() == single.Body.String() {
		t.Errorf("/v2/query and /v2/advise rendered the same bytes")
	}
	if !strings.Contains(batch.Body.String(), `"results"`) || strings.Contains(single.Body.String(), `"results"`) {
		t.Errorf("envelopes crossed: batch %s, advise %s", batch.Body, single.Body)
	}
}

// TestCacheNeverStoresErrors: an error envelope — a parse failure or a
// failing spec — is answered afresh every time and never from the table.
func TestCacheNeverStoresErrors(t *testing.T) {
	x := newTableAPI(t)
	bad := url.Values{"market": {"not-a-market"}, "window": {"24h"}} // fails in exec
	for i := 0; i < 2; i++ {
		if w := x.get("/v1/unavailability", bad); w.Code != http.StatusBadRequest || w.Header().Get(api.HeaderETag) != "" {
			t.Fatalf("request %d: status %d, ETag %q", i, w.Code, w.Header().Get(api.HeaderETag))
		}
	}
	x.wantStats(t, "failing spec twice", 0, 2)
	if w := x.get("/v1/stable", url.Values{"n": {"abc"}}); w.Code != http.StatusBadRequest {
		t.Fatalf("parse failure: status %d", w.Code)
	}
	x.wantStats(t, "parse failure", 0, 2)
}

// TestCacheAbsoluteBatchAcrossTicks: a batch of absolute-window specs does
// not depend on the clock, so an advancing clock keeps it a hit, and the
// only bytes that change are the echoed now.
func TestCacheAbsoluteBatchAcrossTicks(t *testing.T) {
	x := newTableAPI(t)
	addOutage(x.db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	win := api.Between(t0, t0.Add(24*time.Hour))
	batch := api.BatchRequest{Queries: []api.Query{
		{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: win},
		{Kind: api.KindUnavailability, Market: mktA.String(), Window: win},
		{Kind: api.KindAdvise, Window: win, Advise: &api.AdviseConstraints{Regions: []string{"us-east-1"}}},
	}}
	first := x.post(t, "/v2/query", batch)
	*x.now = x.now.Add(90 * time.Minute)
	second := x.post(t, "/v2/query", batch)
	x.wantStats(t, "batch after a tick", 1, 1)
	if first.Header().Get(api.HeaderETag) != second.Header().Get(api.HeaderETag) {
		t.Errorf("the tag moved with the clock")
	}
	var a, b api.BatchResponse
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if !b.Now.Equal(*x.now) || a.Now.Equal(b.Now) {
		t.Errorf("echoed now %v then %v, want the clock at each request (%v last)", a.Now, b.Now, *x.now)
	}
	b.Now = a.Now
	again, _ := json.Marshal(b)
	if want, _ := json.Marshal(a); !bytes.Equal(again, want) {
		t.Errorf("a hit changed more than now:\n got %s\nwant %s", second.Body, first.Body)
	}
	// And the bytes are the ones an uncached render writes at this clock.
	x.e.SetCaching(false)
	if fresh := x.post(t, "/v2/query", batch); fresh.Body.String() != second.Body.String() {
		t.Errorf("hit %s\nfresh %s", second.Body, fresh.Body)
	}
}

// TestCacheServesNoAmbiguousKey: specs whose strings hold the key's
// separators spell the same key bytes as other specs — these two advise
// lists join to one string, these two markets split into the same fields,
// an empty list entry reads as no list, and one instant's UnixNano is the
// missing window's — so the table must answer each from its own
// computation.
func TestCacheServesNoAmbiguousKey(t *testing.T) {
	x := newTableAPI(t)
	win := api.Between(t0, t0.Add(24*time.Hour))
	pairs := [][2]api.Query{
		{
			{Kind: api.KindAdvise, Window: win, Advise: &api.AdviseConstraints{Regions: []string{"us-east-1,eu-west-1"}}},
			{Kind: api.KindAdvise, Window: win, Advise: &api.AdviseConstraints{Regions: []string{"us-east-1", "eu-west-1"}}},
		},
		{
			{Kind: api.KindUnavailability, Market: "a:b:c|d", Window: win},
			{Kind: api.KindUnavailability, Market: "a:b:c", Region: "d|", Window: win},
		},
		{
			{Kind: api.KindAdvise, Window: win, Advise: &api.AdviseConstraints{Regions: []string{""}}},
			{Kind: api.KindAdvise, Window: win, Advise: &api.AdviseConstraints{}},
		},
		{ // the instant whose UnixNano is the zero time's
			{Kind: api.KindStable, Window: api.Between(time.Unix(0, zeroNanos), time.Unix(0, zeroNanos))},
			{Kind: api.KindStable},
		},
	}
	for i, p := range pairs {
		first := x.post(t, "/v2/query", api.BatchRequest{Queries: p[:1]})
		second := x.post(t, "/v2/query", api.BatchRequest{Queries: p[1:]})
		x.e.SetCaching(false)
		want := x.post(t, "/v2/query", api.BatchRequest{Queries: p[1:]})
		x.e.SetCaching(true)
		if first.Body.String() == want.Body.String() {
			t.Fatalf("pair %d renders the same bytes: the case proves nothing", i)
		}
		if second.Body.String() != want.Body.String() {
			t.Errorf("pair %d: the second spec got\n%s\nwant\n%s", i, second.Body, want.Body)
		}
	}
}

// TestCachedAnswersMatchUncached is the table's differential: over the
// store recovered from the golden fixture, every 200 body and ETag from a
// caching API equals the one from a SetCaching(false) API with the same
// salt and clock, on the first request and on the repeat — under a frozen
// clock, an advancing one, and windows named in other zones.
func TestCachedAnswersMatchUncached(t *testing.T) {
	db := goldenStore(t)
	base := time.Date(2015, 9, 1, 12, 30, 0, 0, time.UTC)
	from, to := time.Date(2015, 9, 1, 11, 0, 0, 0, time.UTC), time.Date(2015, 9, 1, 13, 0, 0, 0, time.UTC)
	east := time.FixedZone("+02:00", 2*60*60)
	mktG := "us-east-1a:m3.large:Linux/UNIX"
	abs := func(extra string) string {
		return extra + "&from=" + url.QueryEscape(from.Format(time.RFC3339)) + "&to=" + url.QueryEscape(to.Format(time.RFC3339))
	}
	shifted := func(extra string) string {
		return extra + "&from=" + url.QueryEscape(from.In(east).Format(time.RFC3339)) + "&to=" + url.QueryEscape(to.In(east).Format(time.RFC3339))
	}
	m := "market=" + url.QueryEscape(mktG)
	gets := []string{
		"/v1/summary?", "/v1/markets?region=us-east-1",
		"/v1/unavailability?" + abs(m), "/v1/unavailability?" + m + "&kind=spot&window=2h",
		"/v1/stable?" + abs("region=us-east-1&n=3"), "/v1/stable?" + shifted("n=5"),
		"/v1/volatile?" + abs("n=5"), "/v1/fallback?" + abs(m), "/v1/prices?" + shifted(m),
		"/v1/outages?" + abs(m), "/v1/predict?" + m + "&ratio=1.5&window=6h",
		"/v1/reserved-value?" + abs(m+"&utilization=0.5"),
	}
	spans := []api.Window{api.Between(from, to), api.Between(from.In(east), to.In(east)), api.Last(2 * time.Hour), {}}
	var posts [][2]any
	for _, w := range spans {
		posts = append(posts,
			[2]any{"/v2/advise", api.AdviseRequest{Window: w, AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1", "eu-west-1"}, N: 3}}},
			[2]any{"/v2/query", api.BatchRequest{Queries: []api.Query{
				{Kind: api.KindStable, N: 3, Window: w},
				{Kind: api.KindSummary},
				{Kind: api.KindPrices, Market: mktG, Window: w},
				{Kind: api.KindAdvise, Window: w},
			}}})
	}

	for _, advancing := range []bool{false, true} {
		now := base
		clock := func() time.Time { return now }
		cached, plain := NewAPI(NewEngine(db, market.New()), clock), NewAPI(NewEngine(db, market.New()), clock)
		cached.SetETagSalt(0x5eed)
		plain.SetETagSalt(0x5eed)
		plain.engine.SetCaching(false)
		hc, hp := cached.Handler(), plain.Handler()
		serve := func(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
			var rd io.Reader
			if body != nil {
				b, _ := json.Marshal(body)
				rd = bytes.NewReader(b)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, rd))
			return w
		}
		check := func(method, path string, body any) {
			for round := 0; round < 2; round++ {
				got, want := serve(hc, method, path, body), serve(hp, method, path, body)
				if got.Code != http.StatusOK || want.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d (cached) and %d (uncached): %s", method, path, got.Code, want.Code, want.Body)
				}
				if got.Body.String() != want.Body.String() || got.Header().Get(api.HeaderETag) != want.Header().Get(api.HeaderETag) {
					t.Errorf("advancing=%v round %d %s %s:\ncached   %s %s\nuncached %s %s", advancing, round, method, path,
						got.Header().Get(api.HeaderETag), got.Body, want.Header().Get(api.HeaderETag), want.Body)
				}
				if advancing {
					now = now.Add(7 * time.Minute)
				}
			}
		}
		for pass := 0; pass < 2; pass++ {
			for _, p := range gets {
				check(http.MethodGet, p, nil)
			}
			for _, p := range posts {
				check(http.MethodPost, p[0].(string), p[1])
			}
		}
		if hits, _ := cached.engine.CacheStats(); hits == 0 {
			t.Errorf("advancing=%v: no request was served from the table", advancing)
		}
	}
}

// goldenStore recovers the store's golden fixture from a copy (Open
// repairs torn tails in place, and the committed fixture must stay
// pristine).
func goldenStore(t *testing.T) *store.Store {
	t.Helper()
	dir := t.TempDir()
	if err := copyDir("../store/testdata/golden/store", dir); err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Persister().Close() })
	return db
}

// copyDir copies the regular files under src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// TestCachedHitAllocations pins what a request served from the table may
// allocate through Handler(): URL or body parsing, the routing, the
// headers and the write, and nothing per query run or byte encoded.
// Before the table, this harness measured 56 allocations for a v1 prices
// hit and 93 for a 3-spec batch hit (one request each, its body rewound).
func TestCachedHitAllocations(t *testing.T) {
	x := newTableAPI(t)
	addOutage(x.db, mktA, store.ProbeSpot, t0, t0.Add(6*time.Hour))
	for i := 0; i < 24; i++ {
		x.db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Duration(i) * time.Hour), Price: 0.1 + float64(i)/100})
	}
	batch, _ := json.Marshal(api.BatchRequest{Queries: []api.Query{
		{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: api.Last(24 * time.Hour)},
		{Kind: api.KindSummary},
		{Kind: api.KindUnavailability, Market: mktA.String(), Contract: "spot", Window: api.Last(24 * time.Hour)},
	}})
	body := bytes.NewReader(batch)
	for _, c := range []struct {
		name    string
		ceiling float64
		req     *http.Request
	}{
		{"v1 prices", 25, httptest.NewRequest(http.MethodGet, "/v1/prices?market="+url.QueryEscape(mktA.String())+"&window=24h", nil)},
		{"3-spec batch", 50, httptest.NewRequest(http.MethodPost, "/v2/query", io.NopCloser(body))},
	} {
		serve := func() {
			body.Reset(batch)
			x.h.ServeHTTP(httptest.NewRecorder(), c.req)
		}
		serve()
		hits, _ := x.e.CacheStats()
		got := testing.AllocsPerRun(100, serve)
		if h, _ := x.e.CacheStats(); h-hits != 101 {
			t.Fatalf("%s: %d of 101 runs were hits", c.name, h-hits)
		}
		if got > c.ceiling {
			t.Errorf("%s hit: %.0f allocations, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
