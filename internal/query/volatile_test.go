package query

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

func TestTopVolatileMarkets(t *testing.T) {
	e, db := seededEngine(t)
	to := t0.Add(7 * 24 * time.Hour)
	// mktA: 3 crossings up to 4x; mktB: 1 crossing; sub-od spikes ignored.
	for i, ratio := range []float64{2, 4, 1.5} {
		db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Duration(i) * time.Hour), Market: mktA, Ratio: ratio})
	}
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktB, Ratio: 1.2})
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktB, Ratio: 0.4})
	db.AppendRevocation(store.RevocationRecord{At: t0.Add(time.Hour), Market: mktA, Bid: 0.42, Held: 2 * time.Hour})
	db.AppendRevocation(store.RevocationRecord{At: t0.Add(2 * time.Hour), Market: mktA, Bid: 0.42, Held: 4 * time.Hour})

	rows, err := e.TopVolatileMarkets("", "", 10, t0, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	top := rows[0]
	if top.Market != mktA || top.Crossings != 3 || top.MaxRatio != 4 {
		t.Errorf("top = %+v", top)
	}
	if top.Watches != 2 || top.MeanHeld != 3*time.Hour {
		t.Errorf("watch stats = %d/%v, want 2/3h", top.Watches, top.MeanHeld)
	}
	if rows[1].Market != mktB || rows[1].Crossings != 1 {
		t.Errorf("second = %+v", rows[1])
	}
}

func TestTopVolatileMarketsFilters(t *testing.T) {
	e, db := seededEngine(t)
	to := t0.Add(24 * time.Hour)
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 2}) // us-east-1 Linux
	winMkt := market.SpotID{Zone: "sa-east-1a", Type: "m3.large", Product: market.ProductWindows}
	db.AppendSpike(store.SpikeEvent{At: t0, Market: winMkt, Ratio: 2})

	rows, err := e.TopVolatileMarkets("sa-east-1", "", 10, t0, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Market != winMkt {
		t.Errorf("region filter rows = %+v", rows)
	}
	rows, err = e.TopVolatileMarkets("", market.ProductLinux, 10, t0, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Market != mktA {
		t.Errorf("product filter rows = %+v", rows)
	}
	if _, err := e.TopVolatileMarkets("", "", 10, to, t0); err != ErrBadWindow {
		t.Errorf("err = %v, want ErrBadWindow", err)
	}
	if rows, _ := e.TopVolatileMarkets("", "", 0, t0, to); rows != nil {
		t.Errorf("n=0 rows = %v", rows)
	}
}

func TestOutagesQuery(t *testing.T) {
	e, db := seededEngine(t)
	to := t0.Add(24 * time.Hour)
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(-48*time.Hour), t0.Add(-47*time.Hour))
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(2*time.Hour), t0.Add(3*time.Hour))
	addOutage(db, mktA, store.ProbeSpot, t0.Add(5*time.Hour), time.Time{}) // ongoing

	rows, err := e.Outages(mktA, t0, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (old outage excluded): %+v", len(rows), rows)
	}
	if rows[0].Kind != "on-demand" || rows[0].Duration != time.Hour {
		t.Errorf("first = %+v", rows[0])
	}
	if rows[1].Kind != "spot" || !rows[1].End.IsZero() {
		t.Errorf("second = %+v", rows[1])
	}
	if rows[1].Duration != 19*time.Hour { // 5h start to 24h window end
		t.Errorf("ongoing duration = %v, want 19h", rows[1].Duration)
	}
	if _, err := e.Outages(mktA, to, t0); err != ErrBadWindow {
		t.Errorf("err = %v, want ErrBadWindow", err)
	}
}

func TestHTTPVolatileAndOutages(t *testing.T) {
	srv, db := testServer(t)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 3})
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(time.Hour), t0.Add(2*time.Hour))

	q := window()
	q.Set("n", "5")
	resp, body := get(t, srv, "/v1/volatile", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("volatile status = %d: %s", resp.StatusCode, body)
	}
	var vols []VolatileMarket
	if err := json.Unmarshal(body, &vols); err != nil {
		t.Fatal(err)
	}
	if len(vols) != 1 || vols[0].Market != mktA {
		t.Errorf("volatile rows = %+v", vols)
	}

	q = window()
	q.Set("market", mktA.String())
	resp, body = get(t, srv, "/v1/outages", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outages status = %d: %s", resp.StatusCode, body)
	}
	var outs []OutageView
	if err := json.Unmarshal(body, &outs); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Kind != "on-demand" {
		t.Errorf("outage rows = %+v", outs)
	}

	// Missing market parameter on /v1/outages.
	resp, _ = get(t, srv, "/v1/outages", window())
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("outages without market = %d, want 400", resp.StatusCode)
	}
}

func TestMarketsListing(t *testing.T) {
	e, _ := seededEngine(t)
	all, err := e.Markets("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 26*53*3 {
		t.Fatalf("all markets = %d, want %d", len(all), 26*53*3)
	}
	linuxUSEast, err := e.Markets("us-east-1", market.ProductLinux)
	if err != nil {
		t.Fatal(err)
	}
	if len(linuxUSEast) != 5*53 {
		t.Fatalf("filtered markets = %d, want %d", len(linuxUSEast), 5*53)
	}
	for _, m := range linuxUSEast {
		if m.OnDemandPrice <= 0 || m.Units <= 0 || m.Family == "" {
			t.Fatalf("bad row %+v", m)
		}
	}
}

func TestHTTPMarkets(t *testing.T) {
	srv, _ := testServer(t)
	q := make(map[string][]string)
	q["region"] = []string{"us-west-1"}
	q["product"] = []string{string(market.ProductSUSE)}
	resp, body := get(t, srv, "/v1/markets", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("markets status = %d", resp.StatusCode)
	}
	var rows []MarketInfo
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*53 { // 2 zones x 53 types
		t.Errorf("rows = %d, want %d", len(rows), 2*53)
	}
}

func TestHTTPPredictAndReservedValue(t *testing.T) {
	srv, db := testServer(t)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(time.Hour), t0.Add(2*time.Hour))

	q := window()
	q.Set("market", mktA.String())
	q.Set("ratio", "1.5")
	q.Set("horizon", "15m")
	resp, body := get(t, srv, "/v1/predict", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d: %s", resp.StatusCode, body)
	}
	var pred OutagePrediction
	if err := json.Unmarshal(body, &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Samples != 1 || pred.Probability != 1 {
		t.Errorf("pred = %+v, want the single correlated spike", pred)
	}

	q = window()
	q.Set("market", mktA.String())
	q.Set("utilization", "0.9")
	resp, body = get(t, srv, "/v1/reserved-value", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reserved-value status = %d: %s", resp.StatusCode, body)
	}
	var rv ReservedValue
	if err := json.Unmarshal(body, &rv); err != nil {
		t.Fatal(err)
	}
	if !rv.Reserve {
		t.Errorf("90%% utilization should recommend reserving: %+v", rv)
	}

	// Bad parameters.
	q = window()
	q.Set("market", mktA.String())
	resp, _ = get(t, srv, "/v1/predict", q) // missing ratio
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("predict without ratio = %d, want 400", resp.StatusCode)
	}
	q.Set("ratio", "2")
	q.Set("horizon", "garbage")
	resp, _ = get(t, srv, "/v1/predict", q)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("predict with bad horizon = %d, want 400", resp.StatusCode)
	}
	q = window()
	q.Set("market", mktA.String())
	q.Set("utilization", "1.5")
	resp, _ = get(t, srv, "/v1/reserved-value", q)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reserved-value with bad utilization = %d, want 400", resp.StatusCode)
	}
}
