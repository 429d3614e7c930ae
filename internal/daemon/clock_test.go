package daemon

import (
	"net/http"
	"testing"
	"time"
)

// No reader waits on a tick: with the tick goroutine's mutex held — a tick
// that never finishes — a request that needs the clock still answers.
func TestRequestsDoNotWaitOnATick(t *testing.T) {
	d, err := Start(Options{Addr: "127.0.0.1:0", Seed: 7, Tick: 5 * time.Minute, Speed: 3000})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.Close()

	d.mu.Lock()
	defer d.mu.Unlock()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(d.BaseURL() + "/v1/summary")
	if err != nil {
		t.Fatalf("summary while a tick holds the mutex: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary status = %d", resp.StatusCode)
	}
}
