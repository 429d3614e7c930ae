package obs

import "runtime/metrics"

// RegisterRuntime publishes the Go runtime's own state on reg beside the
// application series, read from runtime/metrics at scrape time: the heap
// the last collection found live, the collections completed, the CPU time
// their stop-the-world pauses took and the goroutines running. No-op on a
// nil registry.
func RegisterRuntime(reg *Registry) {
	read := func(name string) func() float64 {
		return func() float64 {
			s := []metrics.Sample{{Name: name}}
			metrics.Read(s)
			v := s[0].Value
			if v.Kind() == metrics.KindFloat64 {
				return v.Float64()
			}
			return float64(v.Uint64())
		}
	}
	reg.GaugeFunc("spotlight_go_heap_live_bytes", "Heap bytes the last GC cycle marked live.", read("/gc/heap/live:bytes"))
	reg.CounterFunc("spotlight_go_gc_cycles_total", "Completed GC cycles.", read("/gc/cycles/total:gc-cycles"))
	reg.CounterFunc("spotlight_go_gc_pause_cpu_seconds_total", "CPU-seconds the application spent paused by the GC: each pause's wall time times GOMAXPROCS.", read("/cpu/classes/gc/pause:cpu-seconds"))
	reg.GaugeFunc("spotlight_go_goroutines", "Live goroutines.", read("/sched/goroutines:goroutines"))
}
