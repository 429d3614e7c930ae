// Command bench is the repository's benchmark: four seeded workloads over
// the real serving and ingest paths, end-to-end metrics from untraced
// measured rounds, per-layer metrics from a separate single-flight traced
// pass. See README.md in this directory for what each workload is for and
// which metric each layer should move.
//
//	go run ./bench -seed 42                    every workload, both passes
//	go run ./bench -workload read-cold         one workload, both passes
//	go run ./bench -repeat 5                   repeatability table
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                           one pass; the last stdout line
//	                                           is the driver's JSON object
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// rounds is how many measured rounds a run's -seconds are split into; a
// metric's value is the median over them.
const rounds = 5

// setupRepeats is how many times a run builds its topology; setup_s is the
// median and the last build is the one measured.
const setupRepeats = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int // -1: both passes; 0: measured only; 1: traced only
	repeat   int
	clients  int
	outDir   string
	tag      string
}

func (o options) roundLen() time.Duration {
	return time.Duration(o.seconds) * time.Second / rounds
}

// warmup precedes the measured rounds: half a round's length, at least 1 s.
func (o options) warmup() time.Duration {
	return max(o.roundLen()/2, time.Second)
}

// check is one output-verification step.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []Metric `json:"end_to_end"`
	PerLayer  []Metric `json:"per_layer"`
	Checks    []check  `json:"checks"`
	Warnings  []string `json:"warnings,omitempty"`
	Trace     string   `json:"trace_file,omitempty"`

	e2e, layers metricSet
}

func (r *result) warn(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Warnings = append(r.Warnings, msg)
	fmt.Fprintln(os.Stderr, "bench: warning:", r.Workload+":", msg)
}

// verify records a verification step; a failed one makes the run incorrect.
func (r *result) verify(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
		fmt.Fprintln(os.Stderr, "bench: FAILED check:", r.Workload+":", name+":", err)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) finish() {
	r.Correct = r.Failed == 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
	r.EndToEnd, r.PerLayer = r.e2e.list, r.layers.list
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	why  string
	run  func(o options, res *result) error // measured pass
	trc  func(o options, res *result) error // traced pass
}

var workloads = []workload{
	{"read-hot", "working set (~60 keys) fits the 1024-entry result cache: HTTP, JSON and SDK do the work, store folds none",
		func(o options, r *result) error { return runRead(o, r, true) },
		func(o options, r *result) error { return traceRead(o, r, true) }},
	{"read-cold", "every request has a unique window, so every cache probe misses: store folds and engine ranking dominate",
		func(o options, r *result) error { return runRead(o, r, false) },
		func(o options, r *result) error { return traceRead(o, r, false) }},
	{"live-fleet", "open-loop reads through gateway+leader+follower while 10 ticks/s ingest, publish and replicate: the only place writes contend with reads",
		runFleet, traceFleet},
	{"ingest-recover", "write path only: append, rollup, WAL flush, snapshot, close, reopen; counts repeat exactly",
		runIngest, traceIngest},
}

// host describes the machine a report was produced on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report is the full output of one benchmark run; BENCH_<pr>.json is one.
type report struct {
	Schema       int       `json:"schema"`
	Seed         uint64    `json:"seed"`
	Seconds      int       `json:"seconds_per_run"`
	Rounds       int       `json:"rounds"`
	RoundSeconds float64   `json:"round_seconds"`
	Clients      int       `json:"clients"`
	Host         host      `json:"host"`
	Workloads    []*result `json:"workloads"`
}

// runWorkload executes the passes o.trace selects.
func runWorkload(w workload, o options) (*result, error) {
	res := &result{Workload: w.name, Why: w.why}
	if o.trace != 1 {
		if err := w.run(o, res); err != nil {
			return nil, fmt.Errorf("%s: measured pass: %w", w.name, err)
		}
	}
	if o.trace != 0 {
		if err := w.trc(o, res); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}
	res.finish()
	return res, nil
}

func selected(name string) ([]workload, error) {
	if name == "" || name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func runAll(o options) (*report, error) {
	ws, err := selected(o.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Schema: 1, Seed: o.seed, Seconds: o.seconds, Rounds: rounds,
		RoundSeconds: o.roundLen().Seconds(), Clients: o.clients, Host: hostInfo(),
	}
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "bench: %s (seed %d)\n", w.name, o.seed)
		res, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

// driverLine is the one-object summary the benchmark driver reads from the
// last line of stdout: with -trace 0 every end-to-end metric BENCHMARK.json
// lists, with -trace 1 every per-layer one.
func driverLine(res *result, trace int) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, d := range catalog {
		listed := (trace == 0 && d.class == endToEnd) || (trace == 1 && d.class == perLayer && d.every)
		if !listed {
			continue
		}
		set := &res.e2e
		if trace == 1 {
			set = &res.layers
		}
		m, ok := set.get(d.name)
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", res.Workload, d.name)
		}
		metrics[d.name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
}

// benchmarkSpec renders BENCHMARK.json from the workload table and the
// metric catalog, so the file the driver reads cannot drift from what the
// program prints: `go run ./bench -spec > BENCHMARK.json`.
func benchmarkSpec(seconds int) any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range catalog {
		switch {
		case d.class == endToEnd:
			spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
		case d.class == perLayer && d.every:
			spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.better})
		}
	}
	return spec
}

// writeJSON writes v indented to path and returns what it wrote.
func writeJSON(path string, v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	return data, os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, read-hot, read-cold, live-fleet, ingest-recover")
	flag.Uint64Var(&o.seed, "seed", 42, "seeds the dataset (experiment.Config.Seed) and the request generator")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run, split into 5 rounds")
	flag.IntVar(&o.trace, "trace", -1, "0: measured pass only; 1: traced pass only; default both")
	flag.IntVar(&o.repeat, "repeat", 0, "run the whole benchmark N times and print the repeatability table")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "results"), "directory for latest.json and <workload>.trace.json")
	flag.StringVar(&o.tag, "tag", "latest", "basename of the full report written under -out")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the catalog defines it, and exit")
	flag.Parse()
	if *spec {
		out, _ := json.MarshalIndent(benchmarkSpec(o.seconds), "", "  ") // plain structs: cannot fail
		fmt.Println(string(out))
		return
	}
	o.clients = runtime.NumCPU()
	if o.seconds < 1 || o.trace < -1 || o.trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}

	if o.repeat > 0 {
		ok, err := runRepeat(o)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	rep, err := runAll(o)
	if err != nil {
		fatal(err)
	}
	out, err := writeJSON(filepath.Join(o.outDir, o.tag+".json"), rep)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stderr, rep)
	if o.trace >= 0 && len(rep.Workloads) == 1 {
		// One pass of one workload: the driver's one-object line goes last.
		if out, err = driverLine(rep.Workloads[0], o.trace); err != nil {
			fatal(err)
		}
	}
	fmt.Println(strings.TrimSpace(string(out)))
	for _, res := range rep.Workloads {
		if !res.Correct {
			os.Exit(1)
		}
	}
}
