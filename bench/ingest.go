package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/store"
)

// The stated durability policy of ingest-recover, the same on every commit
// that is compared: the WAL is flushed on every tick without fsync (the
// repository's process-crash contract), a snapshot is taken every 24
// simulated hours, and Close takes a final one. One round is two simulated
// days, so each round sees exactly one periodic and one final snapshot.
const (
	ingestTicks    = 576
	ingestSnapshot = 24 * time.Hour
	reopenCount    = 5
	policyStalls   = 3   // device-bound ticks per round under this policy
	crashTicks     = 100 // length of the crash variant: WAL only, no snapshot
)

// ingestRounds is how many whole rounds a run ingests: the workload is
// count-bounded (so its counts repeat exactly), one round per five seconds
// of -seconds and never fewer than two.
func ingestRounds(o options) int { return max(2, o.seconds/5) }

// tmpRoot is where data directories go: inside the checkout, ignored by
// git, removed when the pass ends.
var tmpRoot = filepath.Join(".bench_build", "tmp")

func newDataDir() (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, "ingest-")
}

// ingestRegions restricts ingest-recover's study. Every shard costs a WAL
// directory, segment files and a snapshot file, and with all nine regions
// (4.1k shards) a single round takes ~14 s on the sizing box: more than
// the whole time budget of a run. Two regions keep 8 of the catalog's 26
// zones (~1.3k shards) and the same per-shard work.
var ingestRegions = []market.Region{"us-east-1", "us-west-2"}

func ingestConfig(seed uint64, db *store.Store) experiment.Config {
	cfg := experiment.Config{Seed: seed, Days: ingestTicks / 288, DB: db, Regions: ingestRegions}
	cfg.Spotlight.SnapshotInterval = ingestSnapshot
	return cfg
}

// durable is an open durable study.
type durable struct {
	dir string
	st  *experiment.Study
}

func openDurable(seed uint64, reg *obs.Registry) (*durable, error) {
	dir, err := newDataDir()
	if err != nil {
		return nil, err
	}
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		return nil, err
	}
	db.EnableMetrics(reg)
	st, err := experiment.New(ingestConfig(seed, db))
	if err != nil {
		db.Persister().Abandon()
		return nil, err
	}
	return &durable{dir: dir, st: st}, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// reopen opens dir and answers the first Summary: what a restarted node
// does before it can serve. The caller closes the returned store.
func reopen(dir string, at time.Time) (*store.Store, time.Duration, error) {
	t0 := time.Now()
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		return nil, 0, err
	}
	query.NewEngine(db, market.New()).Summary(at)
	return db, time.Since(t0), nil
}

// answers renders the fixed query set from a store, in process, under a
// clock and salt shared by every store compared.
func answers(db *store.Store, seed uint64, at time.Time, paths []string) ([]string, error) {
	h := newNode(db, market.New(), frozen(at), seed, nil).api.Handler()
	out := make([]string, len(paths))
	for i, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: HTTP %d: %s", p, rec.Code, rec.Body.String())
		}
		out[i] = rec.Header().Get("ETag") + "\n" + rec.Body.String()
	}
	return out, nil
}

func sameStrings(what string, a, b []string, paths []string) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: %s differs", what, paths[i])
		}
	}
	return nil
}

// ingestSetup is what ingest-recover builds before timing: the in-memory
// reference dataset its outputs are checked against, and an empty durable
// study ready for its first tick.
type ingestSetup struct {
	ref *experiment.Study
	d   *durable
}

func (s *ingestSetup) close() {
	s.d.st.DB.Persister().Abandon()
	os.RemoveAll(s.d.dir)
}

func buildIngest(o options) (*ingestSetup, error) {
	ref, err := experiment.Run(ingestConfig(o.seed, nil))
	if err != nil {
		return nil, err
	}
	d, err := openDurable(o.seed, nil)
	if err != nil {
		return nil, err
	}
	return &ingestSetup{ref: ref, d: d}, nil
}

// runIngest is the measured pass of ingest-recover: single goroutine, no
// timers, so record, flush, snapshot and byte counts repeat exactly.
func runIngest(o options, res *result) error {
	markets, err := catalogMarkets()
	if err != nil {
		return err
	}
	s, setups, err := repeatSetup(func() (*ingestSetup, error) { return buildIngest(o) })
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpRoot)
	paths := fixedQueries(markets, s.ref.End)
	want, err := answers(s.ref.DB, o.seed, s.ref.End, paths)
	if err != nil {
		return err
	}
	refGen := s.ref.DB.GlobalGeneration()

	var rps, whole, stalls, p50s, cpus, recovers, disks []float64
	var ticks int
	var lastDir string
	var at time.Time
	d := s.d
	for round := 0; round < ingestRounds(o); round++ {
		if round > 0 {
			if d, err = openDurable(o.seed, nil); err != nil {
				return err
			}
		}
		type tickCost struct{ wall, cpu time.Duration }
		cost := make([]tickCost, 0, ingestTicks)
		t0 := time.Now()
		for i := 0; i < ingestTicks; i++ {
			c, t := cpuTime(), time.Now()
			d.st.Sim.Step()
			d.st.Svc.OnTick()
			cost = append(cost, tickCost{time.Since(t), cpuTime() - c})
		}
		wall := time.Since(t0)
		acked := d.st.DB.GlobalGeneration()
		at = d.st.Sim.Now()
		var before []string
		if round == 0 {
			if before, err = answers(d.st.DB, o.seed, at, paths); err != nil {
				return err
			}
		}
		if err := d.st.Svc.Close(); err != nil {
			return fmt.Errorf("close durable store: %w", err)
		}
		size, err := dirBytes(d.dir)
		if err != nil {
			return err
		}

		var reopens []float64
		for i := 0; i < reopenCount; i++ {
			db, took, err := reopen(d.dir, at)
			if err != nil {
				return err
			}
			reopens = append(reopens, took.Seconds())
			if round == 0 && i == 0 {
				after, err := answers(db, o.seed, at, paths)
				if err != nil {
					return err
				}
				res.verify("reopened store is at the pre-close generation", genEqual(db.GlobalGeneration(), acked))
				res.verify("durable store is at the in-memory dataset's generation", genEqual(acked, refGen))
				res.verify("fixed query set: reopened store answers as the pre-close store did", sameStrings("reopened vs pre-close", after, before, paths))
				res.verify("fixed query set: reopened store answers as the in-memory dataset does", sameStrings("reopened vs in-memory", after, want, paths))
			}
			if err := db.Persister().Close(); err != nil {
				return err
			}
		}

		// The stated policy makes exactly three ticks of a round wait on
		// the device: the first (creates every shard's WAL directory), the
		// one that crosses the snapshot boundary (one fsynced file per
		// shard) and the first hourly flush after it (opens every shard's
		// next segment). Their cost — wall and kernel CPU alike — is the
		// sandbox disk's and swings 2x between rounds, so the bounded rate
		// and CPU are over the other 573 ticks and the three are reported
		// beside them.
		sort.Slice(cost, func(i, j int) bool { return cost[i].wall < cost[j].wall })
		var steady, stalled float64
		var cpu time.Duration
		for i, c := range cost {
			if i < len(cost)-policyStalls {
				steady += c.wall.Seconds()
				cpu += c.cpu
			} else {
				stalled += c.wall.Seconds()
			}
		}
		res.Attempted += ingestTicks
		ticks += ingestTicks
		rps = append(rps, float64(acked)/steady)
		whole = append(whole, float64(acked)/wall.Seconds())
		stalls = append(stalls, stalled)
		p50s = append(p50s, float64(cost[len(cost)/2].wall)/1e3)
		cpus = append(cpus, float64(cpu.Microseconds())/float64(acked))
		recovers = append(recovers, median(reopens))
		disks = append(disks, float64(size)/float64(acked))
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = d.dir
	}

	// Crash variant: die right after the last tick's flush; the reopened
	// store must hold every acknowledged record.
	res.verify("crash after the last flush loses nothing acknowledged", crashVariant(o, paths))

	// Live heap of a recovered store, with everything else released.
	s.ref, s.d, d = nil, nil, nil
	db, _, err := reopen(lastDir, at)
	if err != nil {
		return err
	}
	heap := heapPerRecord(db.GlobalGeneration())
	db.Persister().Abandon()

	res.e2e.add("setup_s", setups, len(setups))
	res.e2e.add("ops_per_s", rps, ticks)
	res.e2e.add("latency_p50_us", p50s, ticks)
	res.e2e.add("cpu_us_per_op", cpus, ticks)
	res.e2e.set("heap_bytes_per_record", heap, int(refGen))
	res.e2e.add("ingest_records_per_s", whole, ticks)
	res.e2e.add("ingest_stall_s", stalls, len(stalls)*policyStalls)
	res.e2e.add("recover_s", recovers, len(recovers)*reopenCount)
	res.e2e.add("disk_bytes_per_record", disks, len(disks))
	res.e2e.set("failed_ops_share", 0, res.Attempted)
	return nil
}

func genEqual(got, want uint64) error {
	if got != want {
		return fmt.Errorf("generation %d, want %d", got, want)
	}
	return nil
}

// crashVariant ingests crashTicks ticks, abandons the persister the way a
// killed process would, reopens, and requires the acknowledged generation
// and the answers of an in-memory study run to the same tick.
func crashVariant(o options, paths []string) error {
	ref, err := experiment.New(ingestConfig(o.seed, nil))
	if err != nil {
		return err
	}
	d, err := openDurable(o.seed, nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.dir)
	for i := 0; i < crashTicks; i++ {
		ref.Sim.Step()
		ref.Svc.OnTick()
		d.st.Sim.Step()
		d.st.Svc.OnTick()
	}
	acked := d.st.DB.GlobalGeneration()
	d.st.DB.Persister().Abandon()
	db, err := store.Open(d.dir, store.PersistOptions{})
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer db.Persister().Abandon()
	if err := genEqual(db.GlobalGeneration(), acked); err != nil {
		return fmt.Errorf("after crash: %w", err)
	}
	at := ref.Sim.Now()
	want, err := answers(ref.DB, o.seed, at, paths)
	if err != nil {
		return err
	}
	got, err := answers(db, o.seed, at, paths)
	if err != nil {
		return err
	}
	return sameStrings("recovered after crash vs in-memory", got, want, paths)
}

// traceIngest is the traced pass of ingest-recover: the write ladder over
// one round with the store's registry on and an identically seeded
// in-memory twin ticking in lock step, then the read ladder over the
// reopened store.
func traceIngest(o options, res *result) error {
	markets, err := catalogMarkets()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpRoot)
	tr := newTracer()
	var cur atomic.Int64
	rt := startRuntimeDelta()

	reg := obs.NewRegistry()
	d, err := openDurable(o.seed, reg)
	if err != nil {
		return err
	}
	twin, err := experiment.New(ingestConfig(o.seed, nil))
	if err != nil {
		return err
	}
	var tl tickLog
	var wal, snaps []float64
	snapCount, snapSum := histogram(reg.Snapshot(), "spotlight_store_snapshot_seconds")
	for i := 0; i < ingestTicks; i++ {
		tl.stepTick(tr, i, d.st)
		tickID := tr.count() // stepTick's core.tick is the newest span
		twin.Sim.Step()
		mem := tr.replay("core.tick.memory", i, tickID, twin.Svc.OnTick)
		c, sum := histogram(reg.Snapshot(), "spotlight_store_snapshot_seconds")
		tickDur := tr.get(tickID).dur()
		if c != snapCount {
			// This tick crossed a snapshot boundary: its span comes from
			// the store's own histogram, ending where the tick ended.
			took := time.Duration((sum - snapSum) * float64(time.Second))
			end := tr.t0.Add(time.Duration(tr.get(tickID).End))
			tr.add("store.snapshot", i, end.Add(-took), end)
			snaps = append(snaps, took.Seconds())
			snapCount, snapSum = c, sum
			continue // the tick's excess over memory is the snapshot, not the WAL
		}
		wal = append(wal, float64(tickDur-tr.get(mem).dur())/1e6)
	}
	acked := d.st.DB.GlobalGeneration()
	at := d.st.Sim.Now()
	if twin.DB.GlobalGeneration() != acked {
		return fmt.Errorf("in-memory twin at generation %d, durable store at %d", twin.DB.GlobalGeneration(), acked)
	}

	id := tr.begin("store.close", ingestTicks)
	err = d.st.Svc.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	closeDur := time.Duration(tr.get(id).dur())
	if c, sum := histogram(reg.Snapshot(), "spotlight_store_snapshot_seconds"); c != snapCount {
		snaps = append(snaps, sum-snapSum)
	}
	snap := reg.Snapshot()
	flushes := counter(snap, "spotlight_store_wal_flushes_total")
	flushed := counter(snap, "spotlight_store_wal_flushed_bytes_total")
	snapshots := counter(snap, "spotlight_store_snapshots_total")
	encoded := counter(snap, "spotlight_store_snapshot_shards_encoded_total")
	linked := counter(snap, "spotlight_store_snapshot_shards_linked_total")
	feed := d.st.DB.Feed().Stats()
	defer os.RemoveAll(d.dir)

	id = tr.begin("store.replay", ingestTicks)
	db, err := store.Open(d.dir, store.PersistOptions{})
	tr.end(id)
	if err != nil {
		return err
	}
	defer db.Persister().Abandon()
	replay := time.Duration(tr.get(id).dur())
	res.verify("reopened store is at the pre-close generation", genEqual(db.GlobalGeneration(), acked))
	rt.sample()

	// Read ladder over the recovered store: does a store rebuilt from
	// snapshot + WAL read like one built by appends?
	now := frozen(at)
	n := newNode(db, twin.Cat, now, o.seed, nil)
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
	list := genCold(o.seed, 0, 1, tracedRequests, markets, at)
	l := &ladder{
		tr: tr, cur: &cur,
		direct: func(int, request) (caller, *tap) { return call, tp1 },
		l2:     newNode(db, twin.Cat, now, o.seed, nil).api.Handler(),
		e3:     query.NewEngine(db, twin.Cat),
		db:     db, cat: twin.Cat, now: now,
	}
	caches := markCaches(n.eng)
	stats, err := l.run(list)
	if err != nil {
		return err
	}

	ms := &res.layers
	stats.report(ms, res)
	if stats.firstErr != nil {
		res.warn("traced pass: first failed op: %v", stats.firstErr)
	}
	caches.report(ms)
	tl.report(ms)
	idleLayers(ms, gatewayCounters...)

	if len(wal) == 0 || len(snaps) == 0 {
		return errors.New("the write ladder saw no WAL tick or no snapshot")
	}
	ms.set("store.wal.ms_per_tick", median(wal), len(wal))
	ms.set("store.wal.flushes", flushes, 1)
	ms.set("store.wal.bytes_per_record", flushed/float64(acked), int(acked))
	ms.set("store.snapshot.s_p50", median(snaps), len(snaps))
	ms.set("store.snapshot.count", snapshots, 1)
	ms.set("store.snapshot.shards_encoded", encoded, 1)
	ms.set("store.snapshot.shards_linked", linked, 1)
	ms.set("store.close_s", closeDur.Seconds(), 1)
	ms.set("store.replay.s", replay.Seconds(), 1)
	ms.set("store.replay.records_per_s", float64(acked)/replay.Seconds(), int(acked))
	ms.set("store.feed.published", float64(feed.Published), 1)
	ms.set("store.feed.dropped", float64(feed.Dropped), 1)
	ms.set("store.feed.lagged", float64(feed.Lagged), 1)
	idleLayers(ms, "query.watch.reconnects", "replica.applied", "replica.reconnects", "replica.resyncs", "replica.lag_records_p50")
	rt.report(ms)

	res.Attempted += ingestTicks + stats.n + stats.failed
	res.Failed += stats.failed
	res.Trace = filepath.Join(o.outDir, res.Workload+".trace.json")
	return tr.write(res.Trace)
}
