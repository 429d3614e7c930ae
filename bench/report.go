package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// printTable renders a report for people: every metric by name with unit,
// direction, value, spread over rounds and sample count.
func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "seed %d, %d rounds x %.1fs, %d clients, %s, %d cpus (%s)\n",
		rep.Seed, rep.Rounds, rep.RoundSeconds, rep.Clients, rep.Host.GoVersion, rep.Host.NProc, rep.Host.CPUModel)
	row := func(m Metric) {
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %g%%", m.Bound*100)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %-6s [%.6g .. %.6g] n=%-8d %s %s\n",
			m.Name, m.Value, m.Unit, m.Better, m.Min, m.Max, m.Samples, bound, m.Note)
	}
	for _, res := range rep.Workloads {
		fmt.Fprintf(w, "\n%s — correct=%v attempted=%d failed=%d\n", res.Workload, res.Correct, res.Attempted, res.Failed)
		if len(res.EndToEnd) > 0 {
			fmt.Fprintln(w, " end to end (measured rounds, tracing off)")
			for _, m := range res.EndToEnd {
				row(m)
			}
		}
		if len(res.PerLayer) > 0 {
			fmt.Fprintln(w, " per layer (traced pass)")
			for _, m := range res.PerLayer {
				row(m)
			}
		}
		for _, c := range res.Checks {
			verdict := "ok  "
			if !c.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "  check %s %s %s\n", verdict, c.Name, c.Detail)
		}
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the benchmark driver computes its spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	x := sortedCopy(v)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// runRepeat runs the selected passes o.repeat times, on seeds o.seed,
// o.seed+1, ..., and prints per end-to-end metric x workload the median,
// min, max and spread with a verdict against the metric's bound. A FAIL
// row is a metric too unsteady to hold a regression bound on this box.
func runRepeat(o options) (bool, error) {
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	defs := make(map[key]Metric)
	var order []key
	correct := true
	for i := 0; i < o.repeat; i++ {
		run := o
		run.seed = o.seed + uint64(i)
		rep, err := runAll(run)
		if err != nil {
			return false, err
		}
		if _, err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("repeat-%d.json", i+1)), rep); err != nil {
			return false, err
		}
		for _, res := range rep.Workloads {
			correct = correct && res.Correct
			for _, m := range res.EndToEnd {
				k := key{res.Workload, m.Name}
				if _, seen := values[k]; !seen {
					order = append(order, k)
					defs[k] = m
				}
				values[k] = append(values[k], m.Value)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Repeatability: %d runs, seeds %d..%d, %d s per run\n\n", o.repeat, o.seed, o.seed+uint64(o.repeat)-1, o.seconds)
	fmt.Fprintf(&b, "Host: %+v\n\n", hostInfo())
	fmt.Fprintln(&b, "Spread is (Q3 - Q1) / median with Python's `statistics.quantiles(v, n=4)`; range is (max - min) / median.")
	fmt.Fprintln(&b, "PASS: spread within the bound. `steady`: spread within a third of it.")
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "| workload | metric | unit | median | min | max | spread | range | bound | verdict |")
	fmt.Fprintln(&b, "|---|---|---|---|---|---|---|---|---|---|")
	sort.SliceStable(order, func(i, j int) bool { return order[i].workload < order[j].workload })
	pass := true
	for _, k := range order {
		v, m := values[k], defs[k]
		med := median(v)
		lo, hi := minMax(v)
		q1, q3 := quartiles(v)
		spread, rng := 0.0, 0.0
		if med != 0 {
			spread, rng = (q3-q1)/med, (hi-lo)/med
		}
		verdict := "PASS"
		switch {
		case m.Bound == 0:
			verdict = "exact per seed"
		case k.metric == "setup_s":
			verdict = "not judged (the driver checks only its median)"
		case spread > m.Bound:
			verdict = "FAIL"
			if lookup(k.metric).class == endToEnd {
				pass = false
			}
		case spread <= m.Bound/3:
			verdict = "PASS steady"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %g%% | %s |\n",
			k.workload, k.metric, m.Unit, med, lo, hi, spread*100, rng*100, m.Bound*100, verdict)
	}
	fmt.Print(b.String())
	if err := os.WriteFile(filepath.Join(o.outDir, "repeatability.md"), []byte(b.String()), 0o644); err != nil {
		return false, err
	}
	return pass && correct, nil
}
