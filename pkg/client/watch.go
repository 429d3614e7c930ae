package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"spotlight/pkg/api"
)

// Live streaming. Watch opens a GET /v2/watch Server-Sent Events stream
// and delivers typed api.StreamEvent values over a channel, reconnecting
// automatically with Last-Event-ID resume whenever the connection drops —
// the server replays the gap exactly from its ring when it still can, and
// otherwise delivers one "resync" event instead: the gap's events are
// gone, so re-read the state you need through the queries; the watch
// continues from there. A 429 from the server's subscriber cap is retried
// after its Retry-After hint.
//
//	w, err := c.Watch(ctx, client.WatchOptions{
//		Region: "us-east-1",
//		Kinds:  []api.EventKind{api.EventRevocation, api.EventOutageOpen},
//	})
//	...
//	for ev := range w.Events() {
//		switch ev.Kind { ... }
//	}
//
// The channel closes when ctx is canceled or Close is called; Err
// reports why the watch ended.

// WatchOptions scope and tune one live subscription.
type WatchOptions struct {
	// Market restricts the stream to one market ("zone:type:product");
	// exclusive with Region/Product.
	Market string
	// Region / Product restrict the stream to a scope; empty means all.
	Region  string
	Product string
	// Kinds restricts the delivered event families; nil means all.
	Kinds []api.EventKind
	// LastEventID resumes from a token captured earlier (e.g. a previous
	// Watch's LastEventID).
	LastEventID string
	// Buffer is the delivery channel capacity (default 64). A consumer
	// that stops draining eventually stalls the reader, the server marks
	// the stream lagged, and the watch reconnects with resume.
	Buffer int
	// MinBackoff/MaxBackoff bound the reconnect backoff (defaults 100ms
	// and 5s; the backoff ceiling doubles per consecutive failure up to
	// MaxBackoff and resets after a healthy connection).
	MinBackoff, MaxBackoff time.Duration
	// NoJitter makes reconnect delays deterministic (exactly the current
	// ceiling) instead of the default full jitter, which sleeps a uniform
	// random duration in [MinBackoff, ceiling]. Jitter is the default
	// because a leader restart disconnects every follower and SDK watcher
	// at the same instant — deterministic backoff would march them all
	// back in synchronized waves, and the thundering herd re-kills the
	// node the waves hit. Tests wanting exact timings opt out.
	NoJitter bool
}

// Watch is one live subscription with automatic reconnect.
type Watch struct {
	c    *Client
	opts WatchOptions

	events chan api.StreamEvent
	cancel context.CancelFunc
	done   chan struct{}

	// rng drives reconnect jitter; per-watch so concurrent watches do not
	// contend on a shared source. Guarded by mu.
	rng *rand.Rand

	mu         sync.Mutex
	lastID     string
	err        error
	reconnects uint64
	lagged     uint64
}

// Events returns the delivery channel. It closes when the watch ends;
// check Err afterwards.
func (w *Watch) Events() <-chan api.StreamEvent { return w.events }

// Close stops the watch and closes Events. Safe to call more than once.
func (w *Watch) Close() {
	w.cancel()
	<-w.done
}

// Err reports why the watch ended (nil while running, context.Canceled
// after Close).
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// LastEventID returns the newest resume token received — pass it to a
// future Watch to continue where this one stopped.
func (w *Watch) LastEventID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastID
}

// Reconnects counts how many times the watch re-established its stream.
func (w *Watch) Reconnects() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reconnects
}

// Lagged counts how many times the server reported this consumer too
// slow (each one cost a reconnect and possibly a resync gap).
func (w *Watch) Lagged() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lagged
}

// Watch opens the live stream. The first connection is established
// synchronously — scope errors (bad market, unknown kind) surface
// immediately as *api.Error — and the stream then runs in the background
// until ctx is canceled or Close is called.
func (c *Client) Watch(ctx context.Context, opts WatchOptions) (*Watch, error) {
	if opts.Buffer <= 0 {
		opts.Buffer = 64
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &Watch{
		c:      c,
		opts:   opts,
		events: make(chan api.StreamEvent, opts.Buffer),
		cancel: cancel,
		done:   make(chan struct{}),
		lastID: opts.LastEventID,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	resp, err := w.connect(wctx, true)
	if err != nil {
		cancel()
		close(w.done)
		return nil, err
	}
	go w.run(wctx, resp)
	return w, nil
}

// watchURL builds the stream URL for the current resume state.
func (w *Watch) watchURL() string {
	v := url.Values{}
	if w.opts.Market != "" {
		v.Set("market", w.opts.Market)
	}
	if w.opts.Region != "" {
		v.Set("region", w.opts.Region)
	}
	if w.opts.Product != "" {
		v.Set("product", w.opts.Product)
	}
	if len(w.opts.Kinds) > 0 {
		names := make([]string, len(w.opts.Kinds))
		for i, k := range w.opts.Kinds {
			names[i] = string(k)
		}
		v.Set("kinds", strings.Join(names, ","))
	}
	u := w.c.base + "/v2/watch"
	if enc := v.Encode(); enc != "" {
		u += "?" + enc
	}
	return u
}

// connect performs one stream request. On 429 it waits out Retry-After
// (bounded by MaxBackoff when absent) and retries, except on the
// synchronous first attempt where only one retry round is taken before
// giving up so the caller gets a prompt error.
func (w *Watch) connect(ctx context.Context, firstAttempt bool) (*http.Response, error) {
	attempts := 0
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.watchURL(), nil)
		if err != nil {
			return nil, err
		}
		if id := w.LastEventID(); id != "" {
			req.Header.Set(api.HeaderLastEventID, id)
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := w.c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			attempts++
			if firstAttempt && attempts > 1 {
				return nil, watchErrFromBody(resp.StatusCode, body)
			}
			delay := w.opts.MaxBackoff
			if s := resp.Header.Get(api.HeaderRetryAfter); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
					delay = time.Duration(secs) * time.Second
				}
			}
			select {
			case <-time.After(delay):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return nil, watchErrFromBody(resp.StatusCode, body)
	}
}

// watchErrFromBody surfaces the service's error envelope when present.
func watchErrFromBody(status int, body []byte) error {
	var aerr api.Error
	if err := json.Unmarshal(body, &aerr); err == nil && aerr.Code != "" {
		return &aerr
	}
	return fmt.Errorf("client: watch: HTTP %d", status)
}

// run is the stream loop: read frames until the connection breaks, then
// reconnect with resume, forever, until the context ends.
func (w *Watch) run(ctx context.Context, resp *http.Response) {
	defer close(w.done)
	defer close(w.events)
	ceiling := w.opts.MinBackoff
	for {
		// resp is nil when the previous reconnect attempt failed — there
		// is nothing to consume, only more backing off to do.
		if resp != nil {
			healthy := w.consume(ctx, resp.Body)
			resp.Body.Close()
			if healthy {
				ceiling = w.opts.MinBackoff
			}
		}
		if ctx.Err() != nil {
			w.setErr(ctx.Err())
			return
		}
		select {
		case <-time.After(w.backoffDelay(ceiling)):
		case <-ctx.Done():
			w.setErr(ctx.Err())
			return
		}
		if ceiling *= 2; ceiling > w.opts.MaxBackoff {
			ceiling = w.opts.MaxBackoff
		}
		var err error
		resp, err = w.connect(ctx, false)
		if err != nil {
			if ctx.Err() != nil {
				w.setErr(ctx.Err())
				return
			}
			// Transient failure (refused, mid-restart): keep trying.
			resp = nil
			continue
		}
		w.mu.Lock()
		w.reconnects++
		w.mu.Unlock()
	}
}

// backoffDelay turns the current ceiling into the actual sleep: the
// ceiling itself under NoJitter, otherwise full jitter over
// [MinBackoff, ceiling].
func (w *Watch) backoffDelay(ceiling time.Duration) time.Duration {
	if w.opts.NoJitter {
		return ceiling
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return jitteredBackoff(w.rng, w.opts.MinBackoff, ceiling)
}

// jitteredBackoff picks a uniform random delay in [min, ceiling]
// (degenerating to ceiling when the range is empty). Full jitter
// decorrelates the reconnect times of clients that a single server
// failure disconnected together.
func jitteredBackoff(rng *rand.Rand, min, ceiling time.Duration) time.Duration {
	if ceiling <= min {
		return ceiling
	}
	return min + time.Duration(rng.Int63n(int64(ceiling-min)+1))
}

// consume reads one connection's frames; it reports whether at least one
// frame arrived (used to reset the backoff).
func (w *Watch) consume(ctx context.Context, body io.Reader) bool {
	br := bufio.NewReader(body)
	sawFrame := false
	var (
		id      string
		kind    string
		data    []string
		sawData bool
	)
	reset := func() {
		id, kind, data, sawData = "", "", nil, false
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return sawFrame
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if !sawData {
				reset()
				continue
			}
			sawFrame = true
			if !w.dispatch(ctx, id, kind, strings.Join(data, "\n")) {
				return sawFrame
			}
			reset()
		case strings.HasPrefix(line, ":"):
			// comment / keep-alive
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			kind = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
			sawData = true
		case strings.HasPrefix(line, "retry:"):
			// The client runs its own backoff; ignore the server hint.
		}
	}
}

// dispatch decodes and delivers one frame; false stops the connection
// (canceled, or terminal lagged frame — the reconnect resumes from the
// lagged position).
func (w *Watch) dispatch(ctx context.Context, id, kind, data string) bool {
	var ev api.StreamEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		// A frame we cannot decode (future kind): skip it rather than
		// kill the stream.
		return true
	}
	ev.ID = id
	if kind != "" {
		ev.Kind = api.EventKind(kind)
	}
	if id != "" {
		w.mu.Lock()
		w.lastID = id
		w.mu.Unlock()
	}
	if ev.Kind == api.EventHeartbeat {
		return true // liveness only
	}
	if ev.Kind == api.EventLagged {
		w.mu.Lock()
		w.lagged++
		w.mu.Unlock()
	}
	select {
	case w.events <- ev:
	case <-ctx.Done():
		return false
	}
	return ev.Kind != api.EventLagged
}

func (w *Watch) setErr(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}
