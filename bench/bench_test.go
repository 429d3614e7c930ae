package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"spotlight/internal/daemon"
	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/store"
)

// No test here runs a timed round; the whole file takes about a second.

func TestRequestListsRepeatPerSeed(t *testing.T) {
	markets, err := catalogMarkets()
	if err != nil {
		t.Fatal(err)
	}
	if len(markets) != 16 {
		t.Fatalf("got %d markets, want 16", len(markets))
	}
	end := time.Date(2015, 9, 7, 0, 0, 0, 0, time.UTC)
	gens := map[string]func(seed uint64, worker int) []request{
		"hot":  func(seed uint64, w int) []request { return genRelative(seed, w, 500, hotMix, markets) },
		"cold": func(seed uint64, w int) []request { return genCold(seed, w, 2, 500, markets, end) },
	}
	for name, gen := range gens {
		a, b := encodeList(gen(42, 0)), encodeList(gen(42, 0))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed produced different request lists", name)
		}
		if bytes.Equal(a, encodeList(gen(43, 0))) {
			t.Errorf("%s: seeds 42 and 43 produced the same request list", name)
		}
		if bytes.Equal(a, encodeList(gen(42, 1))) {
			t.Errorf("%s: workers 0 and 1 got the same request list", name)
		}
	}

	// read-cold: no two requests of a run may share a window.
	seen := make(map[time.Time]bool)
	for w := 0; w < 2; w++ {
		for _, r := range gens["cold"](42, w) {
			if seen[r.Window.To] {
				t.Fatalf("cold window ending %v generated twice", r.Window.To)
			}
			seen[r.Window.To] = true
		}
	}
	// read-hot: the working set must stay far below the 1024-entry cache.
	keys := make(map[string]bool)
	for _, r := range gens["hot"](42, 0) {
		keys[r.Op+"|"+r.Market] = true
	}
	if len(keys) > 100 {
		t.Errorf("hot mix has %d distinct keys, want a few dozen", len(keys))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {0, 10}, {1, 100}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{999, 0.95}, {1000, 0.99}, {10000, 0.99}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}} {
		if got := supportedTail(c.n, 0.99); got != c.want {
			t.Errorf("supportedTail(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := supportedTail(100000, 0.9); got != 0.9 {
		t.Errorf("supportedTail never exceeds the quantile asked for: got %v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.roundtrip", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "node.handler", Start: 30, End: 70},
		// Replayed after the fact: its interval lies outside its parent's.
		{ID: 4, Parent: 3, Name: "query.http", Start: 200, End: 235, Replayed: true},
		{ID: 5, Parent: 4, Name: "query.engine", Start: 300, End: 320, Replayed: true},
		{ID: 6, Parent: 5, Name: "store.fold", Start: 400, End: 425, Replayed: true}, // longer than its parent
		// Two overlapping in-place children and one sticking out of the parent.
		{ID: 7, Name: "parent", Start: 1000, End: 1100},
		{ID: 8, Parent: 7, Name: "a", Start: 1010, End: 1050},
		{ID: 9, Parent: 7, Name: "b", Start: 1040, End: 1060},
		{ID: 10, Parent: 7, Name: "c", Start: 1090, End: 1200},
	}
	want := map[int]int64{1: 20, 2: 40, 3: 5, 4: 15, 5: 0, 6: 25, 7: 40, 8: 40, 9: 20, 10: 110}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id-1].Name, got[id], w)
		}
	}
}

func TestTracerNestsAndReplays(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", 7)
	inner := tr.begin("inner", 7)
	tr.end(inner)
	tr.end(outer)
	rep := tr.replay("replayed", 7, inner, func() {})
	if tr.get(inner).Parent != outer || tr.get(outer).Parent != 0 {
		t.Errorf("inner's parent = %d, outer's = %d", tr.get(inner).Parent, tr.get(outer).Parent)
	}
	if s := tr.get(rep); !s.Replayed || s.Parent != inner || s.Req != 7 {
		t.Errorf("replayed span = %+v", s)
	}
	if s, ok := tr.find(7, "inner", 0); !ok || s.ID != inner {
		t.Errorf("find(inner) = %+v, %v", s, ok)
	}
	if next := tr.begin("next", 8); tr.get(next).Parent != 0 {
		t.Errorf("a span begun after everything closed has parent %d", tr.get(next).Parent)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogNamesAndUnits(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range catalog {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if d.class == perLayer && d.moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", d.name)
		}
		if d.bound > 0.25 {
			t.Errorf("metric %s: bound %g above the contract's 0.25", d.name, d.bound)
		}
		if seen[d.name] {
			t.Errorf("metric %s is in the catalog twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why of %d chars", w.name, len(w.why))
		}
	}
}

// TestOutputRoundTrips fills a result with every catalog metric and checks
// the full report and the driver's line survive a JSON round trip.
func TestOutputRoundTrips(t *testing.T) {
	res := &result{Workload: "read-hot", Attempted: 10}
	for i, d := range catalog {
		set := &res.layers
		if d.class != perLayer {
			set = &res.e2e
		}
		set.add(d.name, []float64{float64(i) + 0.5, float64(i) + 1.5, float64(i) + 2.5}, 3)
	}
	res.verify("a check", nil)
	res.finish()
	rep := &report{Schema: 1, Seed: 42, Workloads: []*result{res}, Host: hostInfo()}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("the report changed across a JSON round trip")
	}
	if m := back.Workloads[0].EndToEnd[1]; m.Value != 2.5 || m.Min != 1.5 || m.Max != 3.5 || m.Samples != 3 {
		t.Errorf("median/min/max of the second metric = %+v", m)
	}

	for trace := 0; trace <= 1; trace++ {
		line, err := driverLine(res, trace)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted != 10 || got.Failed == nil {
			t.Errorf("trace %d: driver line %s", trace, line)
		}
		want := 0
		for _, d := range catalog {
			if (trace == 0 && d.class == endToEnd) || (trace == 1 && d.class == perLayer && d.every) {
				want++
				if m, ok := got.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("trace %d: driver line lacks %s or has the wrong unit", trace, d.name)
				}
			}
		}
		if len(got.Metrics) != want {
			t.Errorf("trace %d: driver line has %d metrics, want %d", trace, len(got.Metrics), want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the driver
// reads, in step with the catalog the program prints from.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, listed []entry, want func(def) bool) {
		i := 0
		for _, d := range catalog {
			if !want(d) {
				continue
			}
			if i >= len(listed) {
				t.Errorf("%s: BENCHMARK.json lacks %s", kind, d.name)
				continue
			}
			e := listed[i]
			i++
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s entry %d: BENCHMARK.json has %+v, the catalog %s/%s/%s", kind, i, e, d.name, d.unit, d.better)
			}
			if kind == "end_to_end" && (e.Bound == nil || *e.Bound != d.bound) {
				t.Errorf("end_to_end %s: bound differs from the catalog's %g", d.name, d.bound)
			}
			if kind == "per_layer" && e.Bound != nil {
				t.Errorf("per_layer %s has a bound", d.name)
			}
		}
		if i != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(listed), i)
		}
	}
	check("end_to_end", spec.EndToEnd, func(d def) bool { return d.class == endToEnd })
	check("per_layer", spec.PerLayer, func(d def) bool { return d.class == perLayer && d.every })
	if spec.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLeaderMirrorsDaemon guards the hand-assembled leader against drifting
// from daemon.startLeader: over two copies of one data directory, with no
// tick fired on either, both must answer the fixed query set (and the
// clock-bound kinds) with the same bytes and ETags.
func TestLeaderMirrorsDaemon(t *testing.T) {
	const seed = 7
	region := market.Region("us-west-1") // the smallest region: few shards, quick to persist
	dirA := filepath.Join(t.TempDir(), "a")
	db, err := store.Open(dirA, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := experiment.New(experiment.Config{Seed: seed, Days: 1, DB: db, Regions: []market.Region{region}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		st.Sim.Step()
		st.Svc.OnTick()
	}
	if err := st.Svc.Close(); err != nil {
		t.Fatal(err)
	}
	var markets []string
	for _, id := range db.Markets() {
		markets = append(markets, id.String())
	}
	if len(markets) < 6 || db.GlobalGeneration() == 0 {
		t.Fatalf("the study left %d markets, %d records", len(markets), db.GlobalGeneration())
	}
	dirB := filepath.Join(t.TempDir(), "b")
	copyTree(t, dirA, dirB)

	dbA, err := store.Open(dirA, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lead, err := assembleLeader(dbA, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lead.listen(nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		lead.close()
		if err := lead.st.Svc.Close(); err != nil {
			t.Error(err)
		}
	}()

	// Speed so low that the first tick is days of wall time away.
	d, err := daemon.Start(daemon.Options{Addr: "127.0.0.1:0", Seed: seed, Tick: simTick, Speed: 1e-3, DataDir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	paths := append(fixedQueries(markets, st.Sim.Now()),
		"/v1/summary",
		"/v1/stable?n=10&window=24h",
		"/v1/markets?region="+string(region))
	if err := sameAnswers(paths, lead.url, d.BaseURL()); err != nil {
		t.Error(err)
	}
	if got, want := lead.db.GlobalGeneration(), db.GlobalGeneration(); got != want {
		t.Errorf("hand-assembled leader recovered generation %d, want %d", got, want)
	}
}
