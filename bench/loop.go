package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// worker is one client goroutine: its own SDK clients over its own single
// keep-alive connection, replaying its own pre-generated request list.
type worker struct {
	call caller
	tp   *http.Transport
	list []request
	pos  int

	lat      []int64 // latency of each op completed this round, ns
	ops      []string
	failed   int
	firstErr error
}

func (w *worker) next() request {
	r := w.list[w.pos%len(w.list)]
	w.pos++
	return r
}

// round is what one timed round of a load loop produced.
type round struct {
	elapsed   time.Duration
	cpu       time.Duration
	lat       []int64 // all successful ops, ns
	byOp      map[string][]int64
	attempted int
	failed    int
}

func (r *round) merge(ws []*worker) {
	r.byOp = make(map[string][]int64)
	for _, w := range ws {
		r.attempted += len(w.lat) + w.failed
		r.failed += w.failed
		r.lat = append(r.lat, w.lat...)
		for i, d := range w.lat {
			r.byOp[w.ops[i]] = append(r.byOp[w.ops[i]], d)
		}
	}
}

// closedRound runs every worker back to back for d: a worker sends its
// next request only after the previous one completed. A request in flight
// at the deadline completes and counts; elapsed runs until the last worker
// stopped.
func closedRound(ws []*worker, d time.Duration) round {
	ctx := context.Background()
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(d)
	for _, w := range ws {
		w.lat, w.ops, w.failed = w.lat[:0], w.ops[:0], 0
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := w.next()
				s := time.Now()
				err := w.call.do(ctx, r)
				el := time.Since(s)
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
					continue
				}
				w.lat = append(w.lat, int64(el))
				w.ops = append(w.ops, r.Op)
			}
		}(w)
	}
	wg.Wait()
	out := round{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
	out.merge(ws)
	return out
}

// runtimeDelta is the Go runtime's activity between two points.
type runtimeDelta struct {
	start      runtime.MemStats
	t0         time.Time
	goroutines int
}

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{t0: time.Now(), goroutines: runtime.NumGoroutine()}
	runtime.ReadMemStats(&d.start)
	return d
}

// sample tracks the goroutine peak; call it at convenient points.
func (d *runtimeDelta) sample() {
	if n := runtime.NumGoroutine(); n > d.goroutines {
		d.goroutines = n
	}
}

// report adds the runtime.* layer metrics for the interval since start.
func (d *runtimeDelta) report(ms *metricSet) {
	d.sample()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	secs := time.Since(d.t0).Seconds()
	cycles := end.NumGC - d.start.NumGC
	var maxPause uint64
	// PauseNs is a ring of the last 256 pauses; walk the ones of this interval.
	for i := uint32(0); i < cycles && i < 256; i++ {
		if p := end.PauseNs[(end.NumGC-1-i)%256]; p > maxPause {
			maxPause = p
		}
	}
	ms.set("runtime.gc_cycles", float64(cycles), 1)
	ms.set("runtime.gc_pause_ms_total", float64(end.PauseTotalNs-d.start.PauseTotalNs)/1e6, int(cycles))
	ms.set("runtime.gc_pause_ms_max", float64(maxPause)/1e6, int(cycles))
	ms.set("runtime.alloc_mb_per_s", float64(end.TotalAlloc-d.start.TotalAlloc)/1e6/secs, 1)
	ms.set("runtime.heap_mb_peak", float64(end.HeapSys-end.HeapReleased)/1e6, 1)
	ms.set("runtime.goroutines_peak", float64(d.goroutines), 1)
}

// heapPerRecord forces a collection and returns live heap bytes per record.
// It collects twice: objects with finalizers (the files of stores torn down
// during setup) are only freed by the cycle after the one that finalizes them.
func heapPerRecord(records uint64) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / float64(records)
}
