package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile reads the q-th quantile of an ascending-sorted sample set by
// the nearest-rank method: the smallest value with at least q·n samples at
// or below it. Empty input yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailCandidates are the tail quantiles a report may carry, highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// supportedTail returns the highest quantile not above want that still has
// at least ten samples beyond it in a set of n — the guard that keeps a
// reported "p99" from being the maximum of a small sample. With fewer than
// 40 samples no tail qualifies and the median is returned.
func supportedTail(n int, want float64) float64 {
	for _, q := range tailCandidates {
		if q > want {
			continue
		}
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median of an unsorted set (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// durs converts nanosecond samples to a float unit (per = time.Microsecond
// gives µs) and sorts them.
func durs(ns []int64, per time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / float64(per)
	}
	sort.Float64s(out)
	return out
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
