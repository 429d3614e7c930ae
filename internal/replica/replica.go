// Package replica turns a SpotLight store into a read replica of a remote
// leader. The Replicator holds the leader's /v2/watch follow stream open
// (api.ContentTypeLog) and hands its bytes to store.Follow, which applies
// the leader's own snapshot and log frames by the recovery rules, so the
// follower's rollups, generations and derived outages are the leader's.
// Left here: the connection, resuming from the newest position applied;
// the leader's salt (the history the store holds, and the ETag salt) and
// clock (the follower's "now"); status. Another history is refused, never
// merged. See docs/replication.md.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/store"
	"spotlight/pkg/api"
)

const (
	// defaultStaleAfter is how long without a frame before Status reports
	// the stream disconnected (the leader sends one at least every 250ms).
	defaultStaleAfter = 45 * time.Second
	// defaultCursorInterval throttles durable-cursor saves (two fsyncs each).
	defaultCursorInterval = 250 * time.Millisecond
	// The reconnect delay doubles per attempt from minBackoff to maxBackoff,
	// and restarts after a stream that delivered a frame.
	minBackoff, maxBackoff = 100 * time.Millisecond, 5 * time.Second
)

// Config wires one Replicator.
type Config struct {
	// Leader is the leader's base URL (scheme + host[:port]).
	Leader string
	// DB is the local store: empty, or a previous life of the same stream.
	// The follower owns all writes to it.
	DB *store.Store
	// StaleAfter is the no-frame interval after which Status reports the
	// stream disconnected (default 45s).
	StaleAfter time.Duration
	// Persist, when set, makes the follower durable: it must be DB's own
	// persister. What the stream applied is flushed through it and the
	// stream cursor saved beside it (cursor.go), so a restart recovers the
	// store locally and resumes the stream where it stopped.
	Persist *store.Persister
	// CursorInterval bounds how often the durable cursor is saved (default
	// 250ms; Close always saves).
	CursorInterval time.Duration
}

// Replicator tails one leader into a local store. Create with New, then
// Start; Clock, Salt, and Status are safe from any goroutine while running.
type Replicator struct {
	cfg Config
	url string // the leader's watch endpoint

	// clockNanos is the newest leader clock seen, appliedNanos the leader
	// clock at the newest position applied; both monotone.
	clockNanos, appliedNanos atomic.Int64
	leaderGen                atomic.Int64 // newest leader generation seen
	lastFrame                atomic.Int64 // wall nanos of the newest frame
	salt                     atomic.Uint64
	saltKnown, helloSeen     atomic.Bool

	applied, skipped, resyncs, reconnects atomic.Uint64

	mu sync.Mutex
	// token resumes the stream from the newest position applied ("" asks
	// for a snapshot); refused says why the leader's stream is refused.
	token, refused string
	// lastCursorSave drives the CursorInterval throttle (apply goroutine).
	lastCursorSave time.Time

	ready     chan struct{}
	readyOnce sync.Once
	cancel    context.CancelFunc
	done      chan struct{}
}

// New validates the config and builds a stopped Replicator; a durable one
// adopts its cursor.
func New(cfg Config) (*Replicator, error) {
	if cfg.DB == nil {
		return nil, errors.New("replica: Config.DB is required")
	}
	if u, err := url.Parse(cfg.Leader); err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("replica: bad leader URL %q", cfg.Leader)
	}
	if cfg.Persist != nil && cfg.DB.Persister() != cfg.Persist {
		return nil, errors.New("replica: Config.Persist must be Config.DB's own persister")
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = defaultStaleAfter
	}
	if cfg.CursorInterval <= 0 {
		cfg.CursorInterval = defaultCursorInterval
	}
	r := &Replicator{cfg: cfg, url: strings.TrimRight(cfg.Leader, "/") + "/v2/watch",
		ready: make(chan struct{}), done: make(chan struct{})}
	if cfg.Persist != nil {
		if err := r.loadCursor(cfg.Persist); err != nil {
			return nil, err
		}
		r.maybeReady()
	}
	return r, nil
}

// Start opens the leader stream (synchronously, so an unreachable leader
// fails fast) and applies it in the background until Close.
func (r *Replicator) Start() error {
	ctx, cancel := context.WithCancel(context.Background())
	body, err := r.connect(ctx)
	if err != nil {
		cancel()
		return fmt.Errorf("replica: attach to leader %s: %w", r.cfg.Leader, err)
	}
	r.cancel = cancel
	go r.run(ctx, body)
	return nil
}

// Close stops replication; the local store stays serviceable (and frozen).
// Idempotent once Start succeeded.
func (r *Replicator) Close() {
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
}

// Ready is closed once the leader's salt and clock are both known — the
// point at which an API layer over the local store mints leader-compatible
// ETags. It never closes if the leader dies before its first frame.
func (r *Replicator) Ready() <-chan struct{} { return r.ready }

// Clock returns the newest leader clock observed: the follower's "now", so
// relative windows resolve against the leader's (possibly simulated)
// timeline.
func (r *Replicator) Clock() time.Time {
	return time.Unix(0, r.clockNanos.Load()).UTC()
}

// Salt returns the leader's ETag salt and whether it is known yet.
func (r *Replicator) Salt() (uint64, bool) {
	return r.salt.Load(), r.saltKnown.Load()
}

// Status snapshots the replication state for /v2/health.
func (r *Replicator) Status() *api.HealthReplication {
	local, leader := r.cfg.DB.GlobalGeneration(), uint64(r.leaderGen.Load())
	r.mu.Lock()
	defer r.mu.Unlock()
	return &api.HealthReplication{
		Role:             "follower",
		Leader:           r.cfg.Leader,
		Connected:        r.connected() && r.refused == "",
		LastEventID:      r.token,
		Applied:          r.applied.Load(),
		LocalGeneration:  local,
		LeaderGeneration: leader,
		Lag:              leader - min(local, leader),
		LagSeconds:       r.lagSeconds(),
		Resyncs:          r.resyncs.Load(),
		Reconnects:       r.reconnects.Load(),
		Error:            r.refused,
	}
}

// connected reports a frame within StaleAfter.
func (r *Replicator) connected() bool {
	t := r.lastFrame.Load()
	return t != 0 && time.Since(time.Unix(0, t)) < r.cfg.StaleAfter
}

// lagSeconds is the leader clock seen minus the clock applied (0 before
// anything applied).
func (r *Replicator) lagSeconds() float64 {
	if applied := r.appliedNanos.Load(); applied != 0 {
		return max(0, time.Duration(r.clockNanos.Load()-applied).Seconds())
	}
	return 0
}

// run applies streams until Close, reconnecting with backoff in between.
func (r *Replicator) run(ctx context.Context, body io.ReadCloser) {
	defer close(r.done)
	for delay := minBackoff; ; delay = min(2*delay, maxBackoff) {
		if body != nil {
			seen := r.lastFrame.Load()
			if err := r.cfg.DB.Follow(body, follower{r}); errors.Is(err, store.ErrStreamGap) {
				r.set(&r.token, "") // only a snapshot brings the missing records
			}
			body.Close()
			if r.lastFrame.Load() != seen {
				delay = minBackoff
			}
		}
		select {
		case <-ctx.Done():
			r.persistCursor(true) // the next life resumes from here
			return
		case <-time.After(delay):
		}
		body, _ = r.connect(ctx)
	}
}

// connect opens one follow stream, resuming from the token if there is one.
func (r *Replicator) connect(ctx context.Context) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", api.ContentTypeLog)
	r.mu.Lock()
	if r.token != "" {
		req.Header.Set(api.HeaderLastEventID, r.token)
	}
	r.mu.Unlock()
	resp, err := http.DefaultClient.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close()
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// follower is the Replicator as store.Follow sees it.
type follower struct{ *Replicator }

// Hello refuses a stream of another history than the local store holds,
// and adopts the salt of the first stream an empty store attaches to.
func (f follower) Hello(p store.Position) error {
	if f.helloSeen.Swap(true) {
		f.reconnects.Add(1)
	}
	salt, known := f.Salt()
	if known && salt != p.Salt || !known && f.cfg.DB.GlobalGeneration() > 0 {
		have := "an unknown history"
		if known {
			have = fmt.Sprintf("salt %x", salt)
		}
		msg := fmt.Sprintf("replica: leader stream has salt %x, the local store holds %s: refused (restart an in-memory follower; wipe a durable follower's data directory)", p.Salt, have)
		f.set(&f.refused, msg)
		return errors.New(msg)
	}
	f.set(&f.refused, "")
	f.lastFrame.Store(time.Now().UnixNano())
	f.observe(p)
	if !known {
		f.salt.Store(p.Salt)
		f.saltKnown.Store(true)
		f.persistCursor(true) // the salt is on disk before any record it names
	}
	f.maybeReady()
	return nil
}

// Snapshot drops the resume token until the image has applied: a durable
// follower that dies halfway must not resume by ordinal over records
// grouped by family.
func (f follower) Snapshot() error {
	if f.cfg.DB.GlobalGeneration() > 0 {
		f.resyncs.Add(1)
	}
	f.set(&f.token, "")
	f.persistCursor(true)
	return nil
}

// Position adopts an applied position: its token resumes the stream.
func (f follower) Position(p store.Position, applied, skipped uint64) error {
	f.lastFrame.Store(time.Now().UnixNano())
	f.applied.Add(applied)
	f.skipped.Add(skipped)
	f.set(&f.token, p.Token())
	maxInt(&f.appliedNanos, p.Clock.UnixNano())
	f.observe(p)
	f.persistCursor(false)
	return nil
}

// observe advances the leader clock and generation.
func (r *Replicator) observe(p store.Position) {
	maxInt(&r.clockNanos, p.Clock.UnixNano())
	maxInt(&r.leaderGen, int64(p.Gen))
}

// set writes one of the mu-guarded strings.
func (r *Replicator) set(field *string, v string) {
	r.mu.Lock()
	*field = v
	r.mu.Unlock()
}

// maybeReady closes Ready once both the salt and the clock are known.
func (r *Replicator) maybeReady() {
	if r.saltKnown.Load() && r.clockNanos.Load() != 0 {
		r.readyOnce.Do(func() { close(r.ready) })
	}
}

// maxInt advances a monotone value to v if larger.
func maxInt(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}
