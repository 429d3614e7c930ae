package obs

import "runtime/metrics"

// RegisterRuntime publishes the Go runtime's own state on reg beside the
// application series, read from runtime/metrics at scrape time: the heap
// the last collection found live, the collections completed and the
// goroutines running. No-op on a nil registry.
func RegisterRuntime(reg *Registry) {
	read := func(name string) func() float64 {
		return func() float64 {
			s := []metrics.Sample{{Name: name}}
			metrics.Read(s)
			return float64(s[0].Value.Uint64())
		}
	}
	reg.GaugeFunc("spotlight_go_heap_live_bytes", "Heap bytes the last GC cycle marked live.", read("/gc/heap/live:bytes"))
	reg.CounterFunc("spotlight_go_gc_cycles_total", "Completed GC cycles.", read("/gc/cycles/total:gc-cycles"))
	reg.GaugeFunc("spotlight_go_goroutines", "Live goroutines.", read("/sched/goroutines:goroutines"))
}
