// Package daemon assembles one running SpotLight node: store, query API,
// HTTP server, and either the simulated study that feeds the store
// (leader mode) or a replication subscription to another node (follower
// mode). Command spotlightd is a thin flag wrapper over Start; tests,
// the benchmark and the spotload drill embed nodes directly.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/replica"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// Options configure one node. The zero value is not runnable; commands
// fill it from flags, tests directly.
type Options struct {
	// Addr is the HTTP listen address (":0" for an ephemeral port).
	Addr string
	// Seed / Tick / Speed shape the leader's simulated study: Tick of
	// simulated time passes every Tick/Speed of wall time.
	Seed  uint64
	Tick  time.Duration
	Speed float64
	// DataDir makes the node's store durable (WAL + snapshots); empty
	// keeps it in memory. On a leader the study resumes from the
	// recovered record; on a follower the replica replays locally and
	// resumes the leader's stream from its durable cursor.
	DataDir string
	// SnapInterval is the simulated time between snapshots (DataDir only).
	SnapInterval time.Duration
	// MaxWatchers caps concurrent /v2/watch subscribers (0: default).
	MaxWatchers int

	// Follow switches the node into follower mode: no simulation runs,
	// and the store is built by tailing the leader at this base URL over
	// /v2/watch (see internal/replica). The node serves the same
	// read-only query surface with the leader's ETag salt and clock.
	Follow string
	// Deprecated: ignored; a follower attaches with the whole history.
	FollowBackfill time.Duration
	// FollowTimeout bounds the wait for the leader's first frame and
	// clock before Start fails (default 30s).
	FollowTimeout time.Duration
	// FollowStaleAfter is how long without stream progress before the
	// follower reports Connected: false (default 45s; see
	// replica.Config.StaleAfter). Failover tests shorten it so a dead
	// leader is detected quickly.
	FollowStaleAfter time.Duration

	// Metrics, when set, is the node's observability registry: the
	// store, the query API, and (on a follower) the replicator register
	// their series into it, and the HTTP surface serves GET /metrics
	// (Prometheus text) and GET /v2/metrics (JSON). One registry per
	// node — its series describe this process only. Nil leaves the node
	// uninstrumented at zero cost.
	Metrics *obs.Registry
	// SlowQuery, when positive, stage-traces every query request and
	// logs the ones slower than this threshold (see query.SetSlowQuery).
	SlowQuery time.Duration
	// Logger receives the node's structured log lines (slow queries);
	// nil falls back to slog.Default.
	Logger *slog.Logger
}

// Daemon is one running node. Close is idempotent.
type Daemon struct {
	// StoreDesc is a human-readable suffix describing the store ("",
	// ", durable store DIR (...)", or ", following URL").
	StoreDesc string

	opts Options
	db   *store.Store     // follower mode only (leaders keep theirs in st.DB)
	pers *store.Persister // durable stores only; nil for in-memory nodes

	st     *experiment.Study   // leader mode, or a follower after Promote
	rep    *replica.Replicator // follower mode (kept after Promote for status)
	mu     sync.Mutex          // owns st.Sim and st.Svc; no request handler takes it
	ln     net.Listener
	srv    *http.Server
	apiSrv *query.API

	// now is the API clock indirection: followers read the replicated
	// leader clock, and Promote atomically swaps in the local simulation
	// clock without racing in-flight request handlers. simNow is that
	// simulation clock as the tick goroutine last published it, so no
	// request waits on a tick in progress.
	now    atomic.Pointer[func() time.Time]
	simNow atomic.Pointer[time.Time]

	promoteMu sync.Mutex // serializes Promote vs Close teardown
	promoted  atomic.Bool

	serveErr chan error
	stopTick context.CancelFunc
	tickDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// Addr returns the listener's concrete address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// BaseURL returns the node's HTTP base URL.
func (d *Daemon) BaseURL() string { return "http://" + d.Addr() }

// ServeErr delivers the http.Server's terminal error (at most one).
func (d *Daemon) ServeErr() <-chan error { return d.serveErr }

// Start builds the node and returns once the listener is live: in leader
// mode the study ticks in the background (recovering a durable store
// first when configured); in follower mode the replication subscription
// is attached and the leader's salt and clock are known, so every ETag
// minted from the first request on is leader-compatible.
func Start(opts Options) (*Daemon, error) {
	if opts.Follow != "" {
		return startFollower(opts)
	}
	return startLeader(opts)
}

// startLeader runs the simulated study and serves its store.
func startLeader(opts Options) (*Daemon, error) {
	expCfg := experiment.Config{Seed: opts.Seed, Days: 1, Tick: opts.Tick}
	d := &Daemon{opts: opts, serveErr: make(chan error, 1)}

	var pers *store.Persister
	var db *store.Store
	if opts.DataDir != "" {
		var err error
		db, err = store.Open(opts.DataDir, store.PersistOptions{})
		if err != nil {
			return nil, err
		}
		pers = db.Persister()
		expCfg.Spotlight.SnapshotInterval = opts.SnapInterval
		// Resume the study clock where the previous process stopped, so
		// the recovered record and the new one share a single timeline.
		expCfg.ResumeAt = pers.Clock()
		d.StoreDesc = fmt.Sprintf(", durable store %s (%d markets recovered)",
			opts.DataDir, len(db.Markets()))
	} else {
		// Pre-create the in-memory store too (instead of letting the
		// study build its own) so metrics are armed before the first
		// tick appends — EnableMetrics writes plain pointers that must
		// not race concurrent appends.
		db = store.New()
	}
	db.EnableMetrics(opts.Metrics)
	expCfg.DB = db
	d.pers = pers

	st, err := experiment.New(expCfg)
	if err != nil {
		if pers != nil {
			pers.Close() // release the data-dir lock; nothing was appended
		}
		return nil, err
	}
	d.st = st

	interval := d.startTicking(st)

	engine := query.NewEngine(st.DB, st.Cat)
	apiSrv := query.NewAPI(engine, d.clock)
	d.apiSrv = apiSrv
	apiSrv.EnableMetrics(opts.Metrics)
	apiSrv.SetSlowQuery(opts.SlowQuery, opts.Logger)
	// Results cannot change faster than the study ticks, so intermediaries
	// may cache exactly one wall-clock tick without revalidating.
	apiSrv.SetCacheTTL(interval)
	apiSrv.SetWatchLimit(opts.MaxWatchers)
	if pers != nil {
		// A durable store's generations survive restarts, so its ETags
		// should too: salt them with the data directory's stable salt
		// instead of this process's boot instant.
		apiSrv.SetETagSalt(pers.Salt())
	}

	if err := d.listen(opts.Addr); err != nil {
		d.stopTick()
		<-d.tickDone
		// Close the durability layer too (flush + data-dir lock release),
		// so a failed start leaves the directory reusable in-process.
		if cerr := st.Svc.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return d, nil
}

// startTicking launches the tick goroutine driving st, points the API
// clock at the simulation clock, and returns the wall-clock tick interval.
// The simulator and service are single-threaded by design; the tick
// goroutine owns them, publishes the clock once at the end of each tick,
// and the HTTP layer only touches the (concurrency-safe) store plus that
// published clock. Used at leader start and again at follower promotion.
func (d *Daemon) startTicking(st *experiment.Study) time.Duration {
	interval := time.Duration(float64(d.opts.Tick) / d.opts.Speed)
	if interval <= 0 {
		interval = time.Millisecond
	}
	publish := func() {
		now := st.Sim.Now()
		d.simNow.Store(&now)
	}
	publish()
	simNow := func() time.Time { return *d.simNow.Load() }
	d.now.Store(&simNow)
	tickCtx, stopTick := context.WithCancel(context.Background())
	d.stopTick = stopTick
	d.tickDone = make(chan struct{})
	go func() {
		defer close(d.tickDone)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-tickCtx.Done():
				return
			case <-ticker.C:
				d.mu.Lock()
				st.Sim.Step()
				st.Svc.OnTick()
				publish()
				d.mu.Unlock()
			}
		}
	}()
	return interval
}

// clock is the API's Now function: one pointer load, then whichever
// clock the node currently lives on (replicated or simulated).
func (d *Daemon) clock() time.Time { return (*d.now.Load())() }

// startFollower attaches the replication subscription over a fresh or
// recovered store and blocks until the leader's salt and clock are
// known — serving before that point would mint ETags under the wrong
// salt. (A durable follower with a recovered cursor knows both from
// disk and is ready immediately, leader reachable or not.)
func startFollower(opts Options) (*Daemon, error) {
	d := &Daemon{opts: opts, serveErr: make(chan error, 1)}
	var db *store.Store
	if opts.DataDir != "" {
		var err error
		db, err = store.Open(opts.DataDir, store.PersistOptions{})
		if err != nil {
			return nil, err
		}
		d.pers = db.Persister()
		d.StoreDesc = fmt.Sprintf(", following %s (durable store %s, %d markets recovered)",
			opts.Follow, opts.DataDir, len(db.Markets()))
	} else {
		db = store.New()
		d.StoreDesc = ", following " + opts.Follow
	}
	d.db = db
	// Arm store metrics before the replicator's first apply, for the same
	// no-race-with-appends reason as the leader path.
	db.EnableMetrics(opts.Metrics)
	rep, err := replica.New(replica.Config{
		Leader:     opts.Follow,
		DB:         db,
		StaleAfter: opts.FollowStaleAfter,
		Persist:    d.pers,
	})
	if err != nil {
		d.closePersister()
		return nil, err
	}
	if err := rep.Start(); err != nil {
		d.closePersister()
		return nil, err
	}
	timeout := opts.FollowTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	select {
	case <-rep.Ready():
	case <-time.After(timeout):
		rep.Close()
		d.closePersister()
		return nil, fmt.Errorf("follower: no salt and clock from leader %s within %v", opts.Follow, timeout)
	}
	d.rep = rep

	repNow := rep.Clock
	d.now.Store(&repNow)
	// The catalog is deterministic (market.New is seedless), so the
	// follower's market metadata matches the leader's without shipping it.
	engine := query.NewEngine(db, market.New())
	apiSrv := query.NewAPI(engine, d.clock)
	d.apiSrv = apiSrv
	apiSrv.EnableMetrics(opts.Metrics)
	apiSrv.SetSlowQuery(opts.SlowQuery, opts.Logger)
	rep.EnableMetrics(opts.Metrics)
	apiSrv.SetWatchLimit(opts.MaxWatchers)
	apiSrv.SetReplication(d.replicationStatus)
	apiSrv.SetPromote(d.Promote)
	if salt, ok := rep.Salt(); ok {
		apiSrv.SetETagSalt(salt)
	}

	if err := d.listen(opts.Addr); err != nil {
		rep.Close()
		d.closePersister()
		return nil, err
	}
	return d, nil
}

// closePersister releases the data-dir durability layer (flush, final
// snapshot, flock). Safe on nil and after an earlier close.
func (d *Daemon) closePersister() {
	if d.pers != nil {
		d.pers.Close()
	}
}

// replicationStatus decorates the replicator's status with the node's
// post-promotion role. The health handler degrades a disconnected
// *follower* but not a promoted node: after promotion the stream is
// closed by design and the node is the authority.
func (d *Daemon) replicationStatus() *api.HealthReplication {
	st := d.rep.Status()
	if d.promoted.Load() {
		st.Role = "promoted"
	}
	return st
}

// Promote converts a running follower into a leader: the replication
// subscription drains and stops, and the replicated store opens for
// writes by resuming a simulated study over it — same ETag salt, same
// clock timeline, continuous generations, so every validator a client
// cached against the follower survives the failover. The node serves
// reads throughout.
//
// Unless force is set, promotion is refused while the old leader still
// answers the stream (split-brain guard): two writers appending under
// one salt would mint colliding ETags for different data.
func (d *Daemon) Promote(force bool) error {
	d.promoteMu.Lock()
	defer d.promoteMu.Unlock()
	if d.rep == nil {
		return errors.New("promote: this node is a leader, not a follower")
	}
	if d.promoted.Load() {
		return errors.New("promote: already promoted")
	}
	if !force {
		if st := d.rep.Status(); st.Connected {
			return fmt.Errorf("promote: leader %s still streaming (split-brain guard; retry with force once it is confirmed dead)", d.opts.Follow)
		}
	}
	// Close waits for the apply loop to stop (a run cut mid-stream applies
	// nothing), and a durable follower persists its final cursor on the way.
	d.rep.Close()

	opts := d.opts
	if opts.Tick <= 0 {
		opts.Tick = 5 * time.Minute
	}
	if opts.Speed <= 0 {
		opts.Speed = 300
	}
	d.opts = opts
	expCfg := experiment.Config{
		Seed: opts.Seed, Days: 1, Tick: opts.Tick,
		DB:       d.db,
		ResumeAt: d.rep.Clock(),
	}
	expCfg.Spotlight.SnapshotInterval = opts.SnapInterval
	st, err := experiment.New(expCfg)
	if err != nil {
		return fmt.Errorf("promote: resume study over replicated store: %w", err)
	}
	d.mu.Lock()
	d.st = st
	d.mu.Unlock()
	// From here Svc owns the persister: its OnTick flushes and its Close
	// (via Daemon.Close) snapshots and releases the flock.
	d.promoted.Store(true)
	d.apiSrv.SetCacheTTL(d.startTicking(st))
	return nil
}

// Halt freezes the node's own simulation: the tick loop stops, the
// store stops appending, and the HTTP surface — queries, health, live
// streams — keeps serving the frozen state. Operationally this is the
// first half of a graceful handoff: stop producing, let followers drain
// to the final generation, then retire the node. A follower has no
// simulation to halt; Halt is a no-op there. Idempotent.
func (d *Daemon) Halt() {
	d.promoteMu.Lock()
	defer d.promoteMu.Unlock()
	if d.stopTick != nil {
		d.stopTick()
		<-d.tickDone
	}
}

// listen binds the address explicitly (so ":0" resolves to a concrete
// port before callers need the base URL) and starts serving.
func (d *Daemon) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.ln = ln
	d.srv = &http.Server{
		Handler:           d.apiSrv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { d.serveErr <- d.srv.Serve(ln) }()
	return nil
}

// Close shuts the node down cleanly: HTTP drains, the tick loop or
// replication subscription stops, and a durable store's layer closes
// (flushing the WAL, taking a final snapshot, persisting the clock —
// via the service on a leader or promoted node, directly on a
// follower). Idempotent.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		// Tear down live /v2/watch streams first: SSE handlers never
		// return on their own, so without this Shutdown would hang until
		// its timeout and leak the stream goroutines.
		d.apiSrv.Shutdown()
		err := d.srv.Shutdown(shutCtx)
		// Hold promoteMu so a concurrent Promote cannot hand the store to
		// a new study while we are tearing the node down.
		d.promoteMu.Lock()
		defer d.promoteMu.Unlock()
		if d.stopTick != nil {
			d.stopTick()
			<-d.tickDone
		}
		if d.rep != nil {
			d.rep.Close()
		}
		if d.st != nil {
			d.mu.Lock()
			cerr := d.st.Svc.Close()
			d.mu.Unlock()
			if err == nil {
				err = cerr
			}
		} else if d.pers != nil {
			// Un-promoted durable follower: no service owns the persister,
			// so the daemon flushes and releases the data dir itself.
			if cerr := d.pers.Close(); err == nil {
				err = cerr
			}
		}
		d.closeErr = err
	})
	return d.closeErr
}
