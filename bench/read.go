package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/pkg/api"
)

// readDays is the simulated length of the read-* dataset: ~4.1k markets,
// ~670k records — three orders of magnitude more rows than clients.
const readDays = 6

// tracedRequests bounds the read ladder: the first this-many requests of
// worker 0's list (enough for a p99 with ten samples beyond it).
const tracedRequests = 1000

// readLists pre-generates every worker's requests. Hot lists are replayed
// cyclically (their few dozen keys repeat anyway); cold lists are sized so
// a run never wraps, and a wrap is reported if it happens.
func readLists(o options, hot bool, markets []string, end time.Time) [][]request {
	lists := make([][]request, o.clients)
	for w := range lists {
		if hot {
			lists[w] = genRelative(o.seed, w, 8192, hotMix, markets)
		} else {
			perWorker := (o.seconds + 4) * 6000 / o.clients
			lists[w] = genCold(o.seed, w, o.clients, perWorker, markets, end)
		}
	}
	return lists
}

// readSetup is one built read-* topology.
type readSetup struct {
	st      *experiment.Study
	n       *node
	workers []*worker
}

func (s *readSetup) close() {
	for _, w := range s.workers {
		w.tp.CloseIdleConnections()
	}
	s.n.close()
}

// frozen returns a clock stopped at t.
func frozen(t time.Time) func() time.Time { return func() time.Time { return t } }

// buildRead builds the dataset, the node on loopback and the clients.
func buildRead(o options) (*readSetup, error) {
	st, err := experiment.Run(experiment.Config{Seed: o.seed, Days: readDays})
	if err != nil {
		return nil, err
	}
	n := newNode(st.DB, st.Cat, frozen(st.End), o.seed, nil)
	if err := n.listen(nil); err != nil {
		return nil, err
	}
	s := &readSetup{st: st, n: n}
	for i := 0; i < o.clients; i++ {
		tp := oneConn()
		k, err := newCaller(n.url, tp)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, &worker{call: k, tp: tp})
	}
	return s, nil
}

// repeatSetup builds a topology setupRepeats times, tearing each down
// before the next, and returns the last with every build's duration.
func repeatSetup[T interface{ close() }](build func() (T, error)) (T, []float64, error) {
	var cur T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			cur.close()
		}
		t0 := time.Now()
		next, err := build()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		cur = next
	}
	return cur, secs, nil
}

// prime takes the ETag of every market's revalidate query into the
// caller's conditional client: from then on each revalidate op must come
// back 304.
func prime(k caller, markets []string) error {
	for _, m := range markets {
		if _, err := k.cond.Unavailability(context.Background(), m, "spot", api.Last(24*time.Hour)); err != nil {
			return fmt.Errorf("prime revalidate: %w", err)
		}
	}
	return nil
}

// runRead is the measured pass of read-hot and read-cold: closed loop, C
// workers, registries off.
func runRead(o options, res *result, hot bool) error {
	markets, err := catalogMarkets()
	if err != nil {
		return err
	}
	s, setups, err := repeatSetup(func() (*readSetup, error) { return buildRead(o) })
	if err != nil {
		return err
	}
	defer s.close()
	records := s.st.DB.GlobalGeneration()
	heap := heapPerRecord(records)

	lists := readLists(o, hot, markets, s.st.End)
	for i, w := range s.workers {
		w.list = lists[i]
	}
	if hot {
		for _, w := range s.workers {
			if err := prime(w.call, markets); err != nil {
				return err
			}
		}
	}
	closedRound(s.workers, o.warmup())

	var notModified0 uint64
	for _, w := range s.workers {
		notModified0 += w.call.cond.NotModifiedCount()
	}
	var rps, p50s, p99s, cpus []float64
	var revalidates, samples int
	tail := 0.99
	for i := 0; i < rounds; i++ {
		r := closedRound(s.workers, o.roundLen())
		res.Attempted += r.attempted
		res.Failed += r.failed
		ok := len(r.lat)
		if ok == 0 {
			return errors.New("a round completed no reads")
		}
		lat := durs(r.lat, time.Microsecond)
		tail = min(tail, supportedTail(ok, 0.99))
		rps = append(rps, float64(ok)/r.elapsed.Seconds())
		p50s = append(p50s, percentile(lat, 0.5))
		p99s = append(p99s, percentile(lat, tail))
		cpus = append(cpus, float64(r.cpu.Microseconds())/float64(ok))
		revalidates += len(r.byOp["revalidate"])
		samples += ok
	}
	for _, w := range s.workers {
		if w.pos > len(w.list) && !hot {
			res.warn("a worker wrapped its request list after %d requests: windows repeated", len(w.list))
		}
		if w.firstErr != nil {
			res.warn("a worker's first failed op: %v", w.firstErr)
		}
	}

	res.e2e.add("setup_s", setups, len(setups))
	res.e2e.add("ops_per_s", rps, samples)
	res.e2e.add("latency_p50_us", p50s, samples)
	res.e2e.add("cpu_us_per_op", cpus, samples)
	res.e2e.set("heap_bytes_per_record", heap, int(records))
	res.e2e.add("read_p99_us", p99s, samples)
	if tail != 0.99 {
		res.e2e.note("read_p99_us", fmt.Sprintf("p%g: a round had under 1000 samples", tail*100))
	}
	res.e2e.set("failed_ops_share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)

	// Verification.
	var notModified uint64
	for _, w := range s.workers {
		notModified += w.call.cond.NotModifiedCount()
	}
	if hot {
		var err error
		if got := int(notModified - notModified0); got != revalidates {
			err = fmt.Errorf("%d revalidate ops, %d answered 304", revalidates, got)
		}
		res.verify("every revalidate returns 304", err)
	}
	res.verify("200-request sample byte-equal to the uncached oracle, ETag on every 200",
		verifySample(o, s.n, lists, 200))
	return nil
}

// verifySample re-issues a seeded sample of the generated requests through
// a capturing client and compares each body with the oracle's rendering.
func verifySample(o options, n *node, lists [][]request, k int) error {
	oracle := query.NewEngine(n.db, n.cat)
	oracle.SetCaching(false)
	tp := oneConn()
	defer tp.CloseIdleConnections()
	tp2 := &tap{base: tp, capture: true}
	call, err := newCaller(n.url, tp2)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(o.seed) ^ 0x5eed))
	ctx := context.Background()
	for i := 0; i < k; i++ {
		list := lists[rng.Intn(len(lists))]
		r := list[rng.Intn(len(list))]
		if err := call.do(ctx, r); err != nil {
			return fmt.Errorf("sample %d (%s): %w", i, r.Op, err)
		}
		ex := tp2.last
		if r.Op == "revalidate" && ex.status == http.StatusNotModified {
			continue // this market's tag was taken earlier in the sample
		}
		if ex.status != http.StatusOK || ex.etag == "" {
			return fmt.Errorf("sample %d (%s): status %d, ETag %q", i, r.Op, ex.status, ex.etag)
		}
		want, err := expectedBody(oracle, r, n.now())
		if err != nil {
			return fmt.Errorf("sample %d (%s): oracle: %w", i, r.Op, err)
		}
		if string(ex.body) != string(want) {
			return fmt.Errorf("sample %d (%s %s %+v): body differs from the oracle (%d vs %d bytes)",
				i, r.Op, r.Market, r.Window, len(ex.body), len(want))
		}
		if r.Op == "revalidate" {
			if err := call.do(ctx, r); err != nil || tp2.last.status != http.StatusNotModified {
				return fmt.Errorf("sample %d: revalidation answered %d (%v), want 304", i, tp2.last.status, err)
			}
		}
	}
	return nil
}

// tickLog is the write ladder's per-tick timing.
type tickLog struct {
	step, tick []int64 // ns
	records    []float64
}

// stepTick runs one tick of st under spans cloud.step and core.tick.
func (tl *tickLog) stepTick(tr *tracer, i int, st *experiment.Study) {
	gen0 := st.DB.GlobalGeneration()
	id := tr.begin("cloud.step", i)
	st.Sim.Step()
	tr.end(id)
	tl.step = append(tl.step, tr.get(id).dur())
	id = tr.begin("core.tick", i)
	st.Svc.OnTick()
	tr.end(id)
	tl.tick = append(tl.tick, tr.get(id).dur())
	tl.records = append(tl.records, float64(st.DB.GlobalGeneration()-gen0))
}

func (tl *tickLog) report(ms *metricSet) {
	n := len(tl.tick)
	tick := durs(tl.tick, time.Millisecond)
	ms.set("core.tick_ms_p50", percentile(tick, 0.5), n)
	ms.setTail("core.tick_ms_p99", tick, 0.99)
	ms.set("cloud.step_ms_p50", percentile(durs(tl.step, time.Millisecond), 0.5), n)
	ms.set("core.records_per_tick", mean(tl.records), n)
}

// cacheMark remembers an engine's cache counters, so a pass can report
// what it alone did to them.
type cacheMark struct {
	eng                                *query.Engine
	hits, misses, memoHits, memoMisses uint64
}

func markCaches(eng *query.Engine) cacheMark {
	m := cacheMark{eng: eng}
	m.hits, m.misses = eng.CacheStats()
	m.memoHits, m.memoMisses = eng.Advisor().MemoStats()
	return m
}

// report adds the cache-layer metrics for everything since the mark.
func (m cacheMark) report(ms *metricSet) {
	now := markCaches(m.eng)
	hits, misses := now.hits-m.hits, now.misses-m.misses
	memoHits, memoMisses := now.memoHits-m.memoHits, now.memoMisses-m.memoMisses
	ms.set("query.cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	ms.set("query.cache.misses", float64(misses), 1)
	ms.set("advisor.memo_hit_ratio", ratio(memoHits, memoHits+memoMisses), int(memoHits+memoMisses))
}

// idleLayers reports the counters of layers a topology does not contain:
// true zeros (no gateway retried, no WAL flushed), kept so every traced run
// prints the same set of names.
func idleLayers(ms *metricSet, names ...string) {
	for _, n := range names {
		ms.set(n, 0, 0)
	}
}

var (
	gatewayCounters = []string{"gateway.retries", "gateway.hedges", "gateway.breaker_opens"}
	walCounters     = []string{"store.wal.flushes", "store.wal.bytes_per_record", "store.snapshot.count", "store.snapshot.shards_encoded", "store.snapshot.shards_linked"}
	streamCounters  = []string{"store.feed.published", "store.feed.dropped", "store.feed.lagged", "query.watch.reconnects",
		"replica.applied", "replica.reconnects", "replica.resyncs", "replica.lag_records_p50"}
)

// traceRead is the traced pass of read-hot and read-cold: the write ladder
// over the dataset build, then the read ladder single-flight over the first
// requests of worker 0's list.
func traceRead(o options, res *result, hot bool) error {
	markets, err := catalogMarkets()
	if err != nil {
		return err
	}
	tr := newTracer()
	var cur atomic.Int64
	rt := startRuntimeDelta()

	st, err := experiment.New(experiment.Config{Seed: o.seed, Days: readDays})
	if err != nil {
		return err
	}
	var tl tickLog
	for i := 0; i < readDays*288; i++ {
		tl.stepTick(tr, i, st)
	}
	rt.sample()
	now := frozen(st.Sim.Now())

	n := newNode(st.DB, st.Cat, now, o.seed, nil)
	if err := n.listen(func(h http.Handler) http.Handler { return spanHandler(tr, &cur, "node.handler", h) }); err != nil {
		return err
	}
	defer n.close()
	tp := oneConn()
	defer tp.CloseIdleConnections()
	tp1 := &tap{base: tp}
	call, err := newCaller(n.url, tp1)
	if err != nil {
		return err
	}

	list := readLists(o, hot, markets, st.Sim.Now())[0]
	traced, spare := list[:tracedRequests], list[tracedRequests:2*tracedRequests]

	l := &ladder{
		tr: tr, cur: &cur,
		direct: func(int, request) (caller, *tap) { return call, tp1 },
		l2:     newNode(st.DB, st.Cat, now, o.seed, nil).api.Handler(),
		e3:     query.NewEngine(st.DB, st.Cat),
		db:     st.DB, cat: st.Cat, now: now,
	}
	if hot {
		if err := prime(call, markets); err != nil {
			return err
		}
	}
	l.warm(spare)
	caches := markCaches(n.eng)
	stats, err := l.run(traced)
	if err != nil {
		return err
	}
	rt.sample()

	ms := &res.layers
	stats.report(ms, res)
	if stats.firstErr != nil {
		res.warn("traced pass: first failed op: %v", stats.firstErr)
	}
	caches.report(ms)
	tl.report(ms)
	idleLayers(ms, gatewayCounters...)
	idleLayers(ms, walCounters...)
	idleLayers(ms, streamCounters...)
	rt.report(ms)

	overhead, err := obsOverhead(o, st, now, list[2*tracedRequests:], markets)
	if err != nil {
		return err
	}
	ms.set("obs.overhead_pct", overhead, 2)

	res.Attempted += stats.n + stats.failed
	res.Failed += stats.failed
	res.Trace = filepath.Join(o.outDir, res.Workload+".trace.json")
	return tr.write(res.Trace)
}

func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// obsOverhead compares closed-loop throughput against two otherwise equal
// API stacks over one store, one with an obs registry armed: the cost of
// having metrics on, in percent of the plain stack's rate.
func obsOverhead(o options, st *experiment.Study, now func() time.Time, list []request, markets []string) (float64, error) {
	rate := func(reg *obs.Registry) (float64, error) {
		n := newNode(st.DB, st.Cat, now, o.seed, reg)
		if err := n.listen(nil); err != nil {
			return 0, err
		}
		defer n.close()
		var ws []*worker
		for i := 0; i < o.clients; i++ {
			tp := oneConn()
			defer tp.CloseIdleConnections()
			k, err := newCaller(n.url, tp)
			if err != nil {
				return 0, err
			}
			// Workers share one list at different offsets; only the rate matters here.
			ws = append(ws, &worker{call: k, tp: tp, list: list, pos: i * len(list) / o.clients})
		}
		for _, w := range ws {
			if err := prime(w.call, markets); err != nil {
				return 0, err
			}
		}
		closedRound(ws, 300*time.Millisecond)
		r := closedRound(ws, time.Second)
		return float64(len(r.lat)) / r.elapsed.Seconds(), nil
	}
	plain, err := rate(nil)
	if err != nil {
		return 0, err
	}
	armed, err := rate(obs.NewRegistry())
	if err != nil {
		return 0, err
	}
	return 100 * (plain - armed) / plain, nil
}
