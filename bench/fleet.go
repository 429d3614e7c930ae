package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/daemon"
	"spotlight/internal/experiment"
	"spotlight/internal/gateway"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

const (
	// fleetTick is the wall-clock tick interval of the live leader: ten
	// 5-minute simulation ticks per second.
	fleetTick = 100 * time.Millisecond
	// fleetRate is the open loop's offered load, requests per second in all.
	fleetRate = 1000
	// fleetTraceTicks is how many live ticks the traced pass covers.
	fleetTraceTicks = 50
	// simTick is the simulated time one tick covers.
	simTick = 5 * time.Minute
)

// leader is the hand-assembled leader node: a mirror of
// daemon.startLeader whose tick loop the benchmark drives itself, so ticks
// land on an absolute schedule and each one is timed. mu owns Sim and Svc;
// HTTP handlers touch only the clock under it.
type leader struct {
	*node
	mu sync.Mutex
	st *experiment.Study
}

// assembleLeader builds the study over db (durable or in memory), the
// engine and the API exactly the way daemon.startLeader does: clock read
// through the tick mutex, Cache-Control from the wall tick interval, and
// the persister's stable ETag salt when the store is durable.
func assembleLeader(db *store.Store, seed uint64, reg *obs.Registry) (*leader, error) {
	cfg := experiment.Config{Seed: seed, Days: 1, Tick: simTick, DB: db}
	pers := db.Persister()
	if pers != nil {
		cfg.ResumeAt = pers.Clock()
	}
	db.EnableMetrics(reg)
	st, err := experiment.New(cfg)
	if err != nil {
		return nil, err
	}
	l := &leader{st: st}
	eng := query.NewEngine(st.DB, st.Cat)
	l.node = &node{db: st.DB, cat: st.Cat, eng: eng, now: func() time.Time {
		l.mu.Lock()
		defer l.mu.Unlock()
		return st.Sim.Now()
	}}
	l.api = query.NewAPI(eng, l.now)
	l.api.EnableMetrics(reg)
	l.api.SetCacheTTL(fleetTick)
	l.api.SetWatchLimit(64)
	if pers != nil {
		l.api.SetETagSalt(pers.Salt())
	}
	return l, nil
}

// tick is one leader tick as the loop saw it.
type tick struct {
	done      time.Time // OnTick returned
	gen       uint64    // store generation after the tick
	step, svc time.Duration
	late      time.Duration
	records   float64
}

// tickOnce advances the leader one tick under the clock mutex.
func (l *leader) tickOnce() tick {
	l.mu.Lock()
	gen0 := l.db.GlobalGeneration()
	t0 := time.Now()
	l.st.Sim.Step()
	t1 := time.Now()
	l.st.Svc.OnTick()
	t2 := time.Now()
	gen := l.db.GlobalGeneration()
	l.mu.Unlock()
	return tick{done: t2, gen: gen, step: t1.Sub(t0), svc: t2.Sub(t1), records: float64(gen - gen0)}
}

// fleet is the live-fleet topology: leader, follower, gateway, one watcher.
type fleet struct {
	lead     *leader
	follower *daemon.Daemon
	gw       *gateway.Gateway
	gwSrv    *http.Server
	gwURL    string
	gwReg    *obs.Registry

	watch    *client.Watch
	watchTP  *http.Transport
	events   chan struct{} // closed when the watch consumer exits
	seenMu   sync.Mutex
	seen     []observation
	backfill time.Duration // follower attach -> caught up

	// preload ticks: flat out, no subscriber armed
	preload []tick

	ticksMu  sync.Mutex
	ticks    []tick
	stopTick chan struct{}
	tickDone chan struct{}
}

// observation is one sighting of a store generation outside the leader: an
// event the watcher received, or a reading of the follower's health.
type observation struct {
	at  time.Time
	gen uint64
	lag uint64 // follower readings only: records behind the leader
}

// fleetHooks lets the traced pass interpose on handlers and transports.
type fleetHooks struct {
	regs       bool
	nodeWrap   func(http.Handler) http.Handler
	gwWrap     func(http.Handler) http.Handler
	gwUpstream func(http.RoundTripper) http.RoundTripper
}

func buildFleet(o options, hk fleetHooks) (*fleet, error) {
	newReg := func() *obs.Registry {
		if hk.regs {
			return obs.NewRegistry()
		}
		return nil
	}
	lead, err := assembleLeader(store.New(), o.seed, newReg())
	if err != nil {
		return nil, err
	}
	f := &fleet{lead: lead}
	for i := 0; i < 288; i++ { // one simulated day before anyone attaches
		f.preload = append(f.preload, lead.tickOnce())
	}
	if err := lead.listen(hk.nodeWrap); err != nil {
		return nil, err
	}

	attach := time.Now()
	f.follower, err = daemon.Start(daemon.Options{
		Addr: "127.0.0.1:0", Follow: lead.url, FollowBackfill: 24 * time.Hour, MaxWatchers: 64,
		Metrics: newReg(),
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("start follower: %w", err)
	}
	if err := f.waitCaughtUp(30 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	f.backfill = time.Since(attach)

	cfg := gateway.Config{Nodes: []string{lead.url, f.follower.BaseURL()}}
	if hk.gwUpstream != nil {
		cfg.HTTPClient = &http.Client{Transport: hk.gwUpstream(http.DefaultTransport)}
	}
	f.gw, err = gateway.New(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gwReg = newReg()
	f.gw.EnableMetrics(f.gwReg)
	h := f.gw.Handler()
	if hk.gwWrap != nil {
		h = hk.gwWrap(h)
	}
	if f.gwSrv, f.gwURL, err = serve(h); err != nil {
		f.close()
		return nil, err
	}

	f.watchTP = &http.Transport{}
	wc, err := client.New(lead.url, &http.Client{Transport: f.watchTP})
	if err != nil {
		f.close()
		return nil, err
	}
	f.watch, err = wc.Watch(context.Background(), client.WatchOptions{Buffer: 256})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("attach watcher: %w", err)
	}
	f.events = make(chan struct{})
	go func() {
		defer close(f.events)
		for ev := range f.watch.Events() {
			if ev.Gen == 0 {
				continue
			}
			f.seenMu.Lock()
			f.seen = append(f.seen, observation{at: time.Now(), gen: ev.Gen})
			f.seenMu.Unlock()
		}
	}()
	return f, nil
}

// seenSince copies the watcher's sightings from index from on.
func (f *fleet) seenSince(from int) []observation {
	f.seenMu.Lock()
	defer f.seenMu.Unlock()
	return append([]observation(nil), f.seen[from:]...)
}

// followerHealth reads the follower's replication block.
func followerHealth(ctx context.Context, c *client.Client) (*api.HealthReplication, error) {
	h, err := c.Health(ctx)
	if err != nil {
		return nil, err
	}
	if h.Replication == nil {
		return nil, errors.New("follower health has no replication block")
	}
	return h.Replication, nil
}

// waitCaughtUp blocks until the follower's generation equals the leader's.
// Only meaningful while the leader is not ticking.
func (f *fleet) waitCaughtUp(timeout time.Duration) error {
	c, err := client.New(f.follower.BaseURL(), nil)
	if err != nil {
		return err
	}
	want := f.lead.db.GlobalGeneration()
	deadline := time.Now().Add(timeout)
	var last uint64
	for time.Now().Before(deadline) {
		if rep, err := followerHealth(context.Background(), c); err == nil {
			if last = rep.LocalGeneration; last == want {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("follower at generation %d, leader at %d after %v", last, want, timeout)
}

// startTicks runs the leader's tick loop on an absolute schedule: tick i is
// due at t0 + i·fleetTick and its lateness is recorded, so a slow tick
// shows as lateness instead of silently stretching the schedule.
func (f *fleet) startTicks() {
	f.stopTick, f.tickDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(f.tickDone)
		t0 := time.Now()
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(i) * fleetTick)
			select {
			case <-f.stopTick:
				return
			case <-time.After(time.Until(due)):
			}
			late := time.Since(due)
			tk := f.lead.tickOnce()
			tk.late = late
			f.ticksMu.Lock()
			f.ticks = append(f.ticks, tk)
			f.ticksMu.Unlock()
		}
	}()
}

func (f *fleet) stopTicks() {
	if f.stopTick != nil {
		close(f.stopTick)
		<-f.tickDone
		f.stopTick = nil
	}
}

func (f *fleet) close() {
	f.stopTicks()
	if f.watch != nil {
		f.watch.Close()
		<-f.events
		f.watchTP.CloseIdleConnections()
	}
	if f.gwSrv != nil {
		shutdown(f.gwSrv)
	}
	if f.gw != nil {
		f.gw.Close()
	}
	if f.follower != nil {
		_ = f.follower.Close() // in-memory follower: nothing to lose at teardown
	}
	f.lead.close()
}

// pollFollower samples the follower's /v2/health every 10 ms until stop.
func (f *fleet) pollFollower(stop <-chan struct{}) (<-chan []observation, error) {
	tp := oneConn()
	c, err := client.New(f.follower.BaseURL(), &http.Client{Transport: tp})
	if err != nil {
		return nil, err
	}
	out := make(chan []observation, 1) // one send, the whole series
	go func() {
		defer tp.CloseIdleConnections()
		var s []observation
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				out <- s
				return
			case <-tk.C:
				if rep, err := followerHealth(context.Background(), c); err == nil {
					s = append(s, observation{time.Now(), rep.LocalGeneration, rep.Lag})
				}
			}
		}
	}()
	return out, nil
}

// firstAtOrAfter returns, sorted, how long after each tick returned the
// first observation with generation >= the tick's arrived. seen must be in
// arrival order. A tick nobody observed is left out and counted.
func firstAtOrAfter(ticks []tick, seen []observation) (ms []float64, missing int) {
	j := 0
	for _, tk := range ticks {
		for j < len(seen) && seen[j].gen < tk.gen {
			j++
		}
		if j == len(seen) {
			missing++
			continue
		}
		ms = append(ms, max(float64(seen[j].at.Sub(tk.done))/1e6, 0))
	}
	sort.Float64s(ms)
	return ms, missing
}

// openSample is one scheduled read of the open loop.
type openSample struct {
	due   time.Duration // offset from the loop's start
	lat   time.Duration // completion - due time
	sched time.Duration // how late the generator sent it
	ok    bool
	op    string
}

// openLoop offers rate requests per second in all for total, spread evenly
// over the workers: request k of worker w is due at (k·C + w)/rate seconds.
// A worker that falls behind sends late but never skips, and every latency
// is taken from the due time, so a stall is charged to every request it
// delayed.
func openLoop(ws []*worker, rate int, total time.Duration) ([]openSample, time.Time) {
	ctx := context.Background()
	gap := time.Second / time.Duration(rate)
	var wg sync.WaitGroup
	per := make([][]openSample, len(ws))
	t0 := time.Now().Add(10 * time.Millisecond)
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			for k := 0; ; k++ {
				due := time.Duration(k*len(ws)+wi) * gap
				if due >= total {
					return
				}
				// Plain sleep: yielding the last stretch to land exactly on the
				// due instant was tried and doubled the process's CPU on a
				// 2-core box. How late the generator ran is reported instead.
				if d := time.Until(t0.Add(due)); d > 0 {
					time.Sleep(d)
				}
				r := w.next()
				sent := time.Since(t0)
				err := w.call.do(ctx, r)
				s := openSample{due: due, lat: time.Since(t0) - due, sched: sent - due, ok: err == nil, op: r.Op}
				if err != nil && w.firstErr == nil {
					w.firstErr = err
				}
				per[wi] = append(per[wi], s)
			}
		}(wi, w)
	}
	wg.Wait()
	var all []openSample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all, t0
}

// fixedQueries is the verification battery: absolute windows keep the
// service clock out of the ETags, so equality means same records, same
// generations, same salt.
func fixedQueries(markets []string, end time.Time) []string {
	win := "from=" + url.QueryEscape("2000-01-01T00:00:00Z") + "&to=" + url.QueryEscape(end.Add(time.Hour).UTC().Format(time.RFC3339))
	paths := []string{"/v1/stable?n=25&" + win, "/v1/volatile?n=25&" + win}
	for _, m := range markets[:6] {
		id := url.QueryEscape(m)
		paths = append(paths,
			"/v1/prices?market="+id+"&"+win,
			"/v1/outages?market="+id+"&"+win,
			"/v1/unavailability?market="+id+"&kind=spot&"+win)
	}
	return paths
}

// fetchTagged GETs base+path raw: body bytes and ETag.
func fetchTagged(base, path string) ([]byte, string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return body, resp.Header.Get(api.HeaderETag), nil
}

// sameAnswers requires every base URL to answer every path with the same
// bytes and the same non-empty ETag as the first.
func sameAnswers(paths []string, bases ...string) error {
	for _, p := range paths {
		body0, tag0, err := fetchTagged(bases[0], p)
		if err != nil {
			return err
		}
		if tag0 == "" {
			return fmt.Errorf("%s: no ETag from %s", p, bases[0])
		}
		for _, b := range bases[1:] {
			body, tag, err := fetchTagged(b, p)
			if err != nil {
				return err
			}
			if tag != tag0 {
				return fmt.Errorf("%s: ETag %s from %s, %s from %s", p, tag, b, tag0, bases[0])
			}
			if string(body) != string(body0) {
				return fmt.Errorf("%s: body from %s differs from %s (%d vs %d bytes)", p, b, bases[0], len(body), len(body0))
			}
		}
	}
	return nil
}

// settle stops the ticks, waits for the follower to reach the leader's
// generation (5 s, or the run fails) and compares the fixed query set
// across leader, follower and gateway.
func (f *fleet) settle(res *result, markets []string) {
	f.stopTicks()
	err := f.waitCaughtUp(5 * time.Second)
	res.verify("follower reaches the leader's generation within 5 s of the last tick", err)
	if err == nil {
		res.verify("fixed 20-query set: same bodies and ETags from leader, follower and gateway",
			sameAnswers(fixedQueries(markets, f.lead.now()), f.lead.url, f.follower.BaseURL(), f.gwURL))
	}
}

func fleetWorkers(o options, base string, markets []string) ([]*worker, error) {
	var ws []*worker
	for i := 0; i < o.clients; i++ {
		tp := oneConn()
		k, err := newCaller(base, tp)
		if err != nil {
			return nil, err
		}
		ws = append(ws, &worker{call: k, tp: tp, list: genRelative(o.seed, i, 8192, fleetMix, markets)})
	}
	return ws, nil
}

// runFleet is the measured pass of live-fleet.
func runFleet(o options, res *result) error {
	markets, err := catalogMarkets()
	if err != nil {
		return err
	}
	f, setups, err := repeatSetup(func() (*fleet, error) { return buildFleet(o, fleetHooks{}) })
	if err != nil {
		return err
	}
	defer f.close()
	records := f.lead.db.GlobalGeneration()
	heap := heapPerRecord(records)
	ws, err := fleetWorkers(o, f.gwURL, markets)
	if err != nil {
		return err
	}
	defer func() {
		for _, w := range ws {
			w.tp.CloseIdleConnections()
		}
	}()

	stopPoll := make(chan struct{})
	polls, err := f.pollFollower(stopPoll)
	if err != nil {
		return err
	}
	f.startTicks()

	// CPU at each round boundary, read by a sampler on the loop's clock.
	warm, rl := o.warmup(), o.roundLen()
	total := warm + rounds*rl
	cpuAt := make([]time.Duration, rounds+1)
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	start := time.Now().Add(10 * time.Millisecond)
	go func() {
		defer samplerDone.Done()
		for i := range cpuAt {
			time.Sleep(time.Until(start.Add(warm + time.Duration(i)*rl)))
			cpuAt[i] = cpuTime()
		}
	}()
	samples, t0 := openLoop(ws, fleetRate, total)
	samplerDone.Wait()
	close(stopPoll)
	series := <-polls

	f.ticksMu.Lock()
	ticks := append([]tick(nil), f.ticks...)
	f.ticksMu.Unlock()
	f.settle(res, markets)

	// Per-round statistics; a sample belongs to the round its due time is in.
	limit := latencyLimitMs * time.Millisecond
	var p50s, good, slow, cpus []float64
	var measured int
	for r := 0; r < rounds; r++ {
		lo, hi := warm+time.Duration(r)*rl, warm+time.Duration(r+1)*rl
		var lat []int64
		var within, scheduled int
		for _, s := range samples {
			if s.due < lo || s.due >= hi {
				continue
			}
			scheduled++
			res.Attempted++
			if !s.ok {
				res.Failed++
				continue
			}
			lat = append(lat, int64(s.lat))
			if s.lat <= limit {
				within++
			}
		}
		if len(lat) == 0 {
			return errors.New("a round completed no reads")
		}
		measured += scheduled
		p50s = append(p50s, percentile(durs(lat, time.Microsecond), 0.5))
		good = append(good, float64(within)/rl.Seconds())
		slow = append(slow, float64(scheduled-within)/float64(scheduled))
		cpus = append(cpus, float64((cpuAt[r+1]-cpuAt[r]).Microseconds())/float64(scheduled))
	}
	for _, w := range ws {
		if w.firstErr != nil {
			res.warn("first failed op: %v", w.firstErr)
			break
		}
	}
	var sched, worst []int64
	for _, s := range samples {
		if s.due >= warm {
			sched = append(sched, int64(s.sched))
			worst = append(worst, int64(s.lat))
		}
	}
	all := durs(worst, time.Microsecond)
	res.layers.set("client.sched_late_ms_p99", percentile(durs(sched, time.Millisecond), 0.99), len(sched))
	res.layers.set("client.open_p99_us", percentile(all, 0.99), len(all))
	res.layers.set("client.open_max_ms", all[len(all)-1]/1e3, len(all))

	// Freshness and replica catch-up, over the ticks of the measured rounds.
	var mticks []tick
	for _, tk := range ticks {
		if off := tk.done.Sub(t0); off >= warm && off < total {
			mticks = append(mticks, tk)
		}
	}
	fresh, unseen := firstAtOrAfter(mticks, f.seenSince(0))
	catchup, behind := firstAtOrAfter(mticks, series)
	if unseen > 0 || behind > 0 {
		res.warn("%d of %d ticks never reached the watcher, %d never seen applied on the follower before the run ended", unseen, len(mticks), behind)
	}

	res.e2e.add("setup_s", setups, len(setups))
	res.e2e.add("ops_per_s", good, measured)
	res.e2e.add("latency_p50_us", p50s, measured)
	res.e2e.add("cpu_us_per_op", cpus, measured)
	res.e2e.set("heap_bytes_per_record", heap, int(records))
	res.e2e.add("slow_read_share", slow, measured)
	if len(fresh) > 0 {
		res.e2e.set("fresh_p50_ms", percentile(fresh, 0.5), len(fresh))
		res.e2e.setTail("fresh_p90_ms", fresh, 0.9)
	}
	if len(catchup) > 0 {
		res.e2e.set("replica_catchup_p50_ms", percentile(catchup, 0.5), len(catchup))
	}
	res.e2e.set("failed_ops_share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
	return nil
}

// family returns one metric family's values from a registry snapshot.
func family(snap []obs.FamilySnapshot, name string) []obs.ValueSnapshot {
	for _, fam := range snap {
		if fam.Name == name {
			return fam.Values
		}
	}
	return nil
}

// counter sums a counter family over its label values.
func counter(snap []obs.FamilySnapshot, name string) float64 {
	var sum float64
	for _, v := range family(snap, name) {
		sum += v.Value
	}
	return sum
}

// histogram sums a histogram family's observation count and total seconds.
func histogram(snap []obs.FamilySnapshot, name string) (count uint64, sum float64) {
	for _, v := range family(snap, name) {
		count += v.Count
		sum += v.Sum
	}
	return count, sum
}

// traceFleet is the traced pass of live-fleet: registries on, the read
// ladder single-flight from the gateway down while the leader keeps
// ticking, and the write-side layers read from the same ticks.
func traceFleet(o options, res *result) error {
	markets, err := catalogMarkets()
	if err != nil {
		return err
	}
	tr := newTracer()
	var cur atomic.Int64
	rt := startRuntimeDelta()

	// Which node the gateway asked for each request (L0), so the direct
	// rung (L1) asks the same one. A batch the gateway splits records its
	// last sub-call.
	var upMu sync.Mutex
	upstream := make(map[int]string)
	f, err := buildFleet(o, fleetHooks{
		regs:     true,
		nodeWrap: func(h http.Handler) http.Handler { return spanHandler(tr, &cur, "node.handler", h) },
		gwWrap:   func(h http.Handler) http.Handler { return spanHandler(tr, &cur, "gateway.handler", h) },
		gwUpstream: func(base http.RoundTripper) http.RoundTripper {
			return roundTripFunc(func(r *http.Request) (*http.Response, error) {
				i := int(cur.Load())
				upMu.Lock()
				upstream[i] = r.URL.Host
				upMu.Unlock()
				id := tr.begin("gateway.upstream", i)
				defer tr.end(id)
				return base.RoundTrip(r)
			})
		},
	})
	if err != nil {
		return err
	}
	defer f.close()
	rt.sample()

	gwTP, leadTP, follTP := oneConn(), oneConn(), oneConn()
	defer gwTP.CloseIdleConnections()
	defer leadTP.CloseIdleConnections()
	defer follTP.CloseIdleConnections()
	gwTap, leadTap, follTap := &tap{base: gwTP, tr: tr, cur: &cur}, &tap{base: leadTP}, &tap{base: follTP}
	viaGW, err := newCaller(f.gwURL, gwTap)
	if err != nil {
		return err
	}
	toLead, err := newCaller(f.lead.url, leadTap)
	if err != nil {
		return err
	}
	toFoll, err := newCaller(f.follower.BaseURL(), follTap)
	if err != nil {
		return err
	}
	followerHost := f.follower.Addr()

	list := genRelative(o.seed, 0, 2*tracedRequests, fleetMix, markets)
	onFollower := func(i int) bool {
		upMu.Lock()
		defer upMu.Unlock()
		return upstream[i] == followerHost
	}
	l := &ladder{
		tr: tr, cur: &cur, viaGateway: &viaGW,
		direct: func(i int, _ request) (caller, *tap) {
			if onFollower(i) {
				return toFoll, follTap
			}
			return toLead, leadTap
		},
		l2: newNode(f.lead.db, f.lead.cat, f.lead.now, o.seed, nil).api.Handler(),
		e3: query.NewEngine(f.lead.db, f.lead.cat),
		db: f.lead.db, cat: f.lead.cat, now: f.lead.now,
	}

	stopPoll := make(chan struct{})
	polls, err := f.pollFollower(stopPoll)
	if err != nil {
		return err
	}
	feed0 := f.lead.db.Feed().Stats()
	seen0 := len(f.seenSince(0))
	f.startTicks()
	t0 := time.Now()
	caches := markCaches(f.lead.eng)
	// The read ladder is count-bounded, but the write-side layers need
	// ticks to look at: keep climbing it, one slice of the list after
	// another, until fleetTraceTicks ticks have passed.
	var stats *ladderStats
	for slice := 0; ; slice++ {
		lo := slice * tracedRequests % len(list)
		s, err := l.run(list[lo : lo+tracedRequests])
		if err != nil {
			return err
		}
		if stats == nil {
			stats = s
		} else {
			stats.merge(s)
		}
		f.ticksMu.Lock()
		n := len(f.ticks)
		f.ticksMu.Unlock()
		if n >= fleetTraceTicks {
			break
		}
	}
	wall := time.Since(t0)
	close(stopPoll)
	series := <-polls
	f.ticksMu.Lock()
	ticks := append([]tick(nil), f.ticks...)
	f.ticksMu.Unlock()
	for i, tk := range ticks {
		tr.add("cloud.step", i, tk.done.Add(-tk.svc-tk.step), tk.done.Add(-tk.svc))
		tr.add("core.tick", i, tk.done.Add(-tk.svc), tk.done)
	}
	f.settle(res, markets)
	rt.sample()

	ms := &res.layers
	stats.report(ms, res)
	if stats.firstErr != nil {
		res.warn("traced pass: first failed op: %v", stats.firstErr)
	}
	// L1 by the node the gateway had picked for the request.
	var onLead, onFoll []float64
	for k, v := range stats.l1 {
		if onFollower(stats.idx[k]) {
			onFoll = append(onFoll, v)
		} else {
			onLead = append(onLead, v)
		}
	}
	for _, side := range []struct {
		name string
		v    []float64
	}{{"client.direct_leader", onLead}, {"client.direct_follower", onFoll}} {
		if len(side.v) == 0 {
			continue
		}
		s := sortedCopy(side.v)
		ms.set(side.name+".p50_us", percentile(s, 0.5), len(s))
		ms.setTail(side.name+".p99_us", s, 0.99)
	}
	caches.report(ms)

	gsnap := f.gwReg.Snapshot()
	ms.set("gateway.retries", counter(gsnap, "spotlight_gateway_retries_total"), 1)
	ms.set("gateway.hedges", counter(gsnap, "spotlight_gateway_hedges_total"), 1)
	ms.set("gateway.breaker_opens", counter(gsnap, "spotlight_gateway_breaker_opens_total"), 1)
	var up99 float64 // the worse of the two upstreams' own p99 estimates
	for _, v := range family(gsnap, "spotlight_gateway_upstream_seconds") {
		up99 = max(up99, v.P99)
	}
	ms.set("gateway.upstream_p99_ms", up99*1e3, stats.n)

	var tl tickLog
	var late []int64
	for _, tk := range ticks {
		tl.step = append(tl.step, int64(tk.step))
		tl.tick = append(tl.tick, int64(tk.svc))
		tl.records = append(tl.records, tk.records)
		late = append(late, int64(tk.late))
	}
	if len(ticks) == 0 {
		return errors.New("the traced pass ended before the first tick")
	}
	tl.report(ms)
	ms.setTail("core.tick_late_ms_p99", durs(late, time.Millisecond), 0.99)
	idleLayers(ms, walCounters...)

	feed := f.lead.db.Feed().Stats()
	ms.set("store.feed.published", float64(feed.Published-feed0.Published), 1)
	ms.set("store.feed.dropped", float64(feed.Dropped-feed0.Dropped), 1)
	ms.set("store.feed.lagged", float64(feed.Lagged-feed0.Lagged), 1)
	var pre []int64
	for _, tk := range f.preload {
		pre = append(pre, int64(tk.svc))
	}
	armed, unarmed := percentile(durs(tl.tick, time.Microsecond), 0.5), percentile(durs(pre, time.Microsecond), 0.5)
	ms.set("store.feed.us_per_event", (armed-unarmed)/mean(tl.records), len(ticks))

	seen := f.seenSince(seen0)
	ms.set("query.watch.events_per_s", float64(len(seen))/wall.Seconds(), len(seen))
	ms.set("query.watch.reconnects", float64(f.watch.Reconnects()), 1)
	ms.set("query.watch.backfill_ms", float64(f.backfill)/1e6, 1)
	if fresh, _ := firstAtOrAfter(ticks, seen); len(fresh) > 0 {
		ms.setTail("query.watch.fresh_p99_ms", fresh, 0.99)
	}
	if catchup, _ := firstAtOrAfter(ticks, series); len(catchup) > 0 {
		ms.setTail("replica.catchup_p90_ms", catchup, 0.9)
	}
	lags := make([]float64, len(series))
	for i, s := range series {
		lags[i] = float64(s.lag)
	}
	fc, err := client.New(f.follower.BaseURL(), nil)
	if err != nil {
		return err
	}
	rep, err := followerHealth(context.Background(), fc)
	if err != nil {
		return err
	}
	ms.set("replica.applied", float64(rep.Applied), 1)
	ms.set("replica.reconnects", float64(rep.Reconnects), 1)
	ms.set("replica.resyncs", float64(rep.Resyncs), 1)
	ms.set("replica.lag_records_p50", median(lags), len(lags))
	rt.report(ms)

	res.Attempted += stats.n + stats.failed
	res.Failed += stats.failed
	res.Trace = filepath.Join(o.outDir, res.Workload+".trace.json")
	return tr.write(res.Trace)
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
