package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// postAdviseRaw posts an advise request and returns status, headers, body.
func postAdviseRaw(t *testing.T, url string, areq api.AdviseRequest, etag string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(areq)
	req, err := http.NewRequest(http.MethodPost, url+"/v2/advise", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if etag != "" {
		req.Header.Set(api.HeaderIfNoneMatch, etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// seedPrices records a day of hourly samples for id at a flat price.
func seedPrices(db *store.Store, id market.SpotID, price float64) {
	for i := 0; i < 24; i++ {
		db.RecordPrice(id, store.PricePoint{At: t0.Add(time.Duration(i) * time.Hour), Price: price})
	}
}

func TestReplicaAdvisePassthrough(t *testing.T) {
	db := store.New()
	for i, id := range usEastMarkets(t, 4) {
		seedPrices(db, id, 0.02+0.01*float64(i))
	}
	a := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	t.Cleanup(a.Shutdown)
	srvA := httptest.NewServer(a.Handler())
	srvB := httptest.NewServer(a.Handler())
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	g, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := gwServer(t, g)

	areq := api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 4},
		Window:            api.Between(t0, t0.Add(24*time.Hour)),
	}
	viaGW, gwBody := postAdviseRaw(t, gsrv.URL, areq, "")
	if viaGW.StatusCode != http.StatusOK {
		t.Fatalf("gateway advise status = %d body=%s", viaGW.StatusCode, gwBody)
	}
	direct, directBody := postAdviseRaw(t, srvA.URL, areq, "")
	if direct.StatusCode != http.StatusOK {
		t.Fatalf("direct advise status = %d", direct.StatusCode)
	}
	if !bytes.Equal(gwBody, directBody) {
		t.Errorf("gateway advise diverged from direct node\n via: %.300s\nnode: %.300s", gwBody, directBody)
	}

	// The upstream ETag passes through, and validators revalidate.
	etag := viaGW.Header.Get(api.HeaderETag)
	if etag == "" || etag != direct.Header.Get(api.HeaderETag) {
		t.Fatalf("proxied advise ETag = %q, direct %q", etag, direct.Header.Get(api.HeaderETag))
	}
	rnm, body := postAdviseRaw(t, gsrv.URL, areq, etag)
	if rnm.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("validator through gateway answered %d (%q), want empty 304", rnm.StatusCode, body)
	}
}
