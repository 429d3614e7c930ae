package stats

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestTopNMatchesSortAndTruncate: for any arrival order and any bound —
// zero, below, at and above the row count — the selection is the sorted
// prefix.
func TestTopNMatchesSortAndTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{0, 1, 2, 9, 64, 500} {
		all := rng.Perm(rows) // distinct, so < is a strict total order
		for _, n := range []int{0, 1, 3, rows, rows + 1, 1 << 30} {
			top := NewTopN(n, func(a, b *int) bool { return *a < *b })
			for _, v := range all {
				top.Push(v)
			}
			want := append([]int(nil), all...)
			sort.Ints(want)
			if len(want) > n {
				want = want[:n]
			}
			if got := top.Sorted(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%d rows, n=%d: got %v, want %v", rows, n, got, want)
			}
		}
	}
	if got := NewTopN(3, func(a, b *int) bool { return *a < *b }).Sorted(); got != nil {
		t.Errorf("no rows pushed: got %v, want nil", got)
	}
}

// TestTopNAdmits: Admits answers what a Push of the same row would do —
// keep it or drop it — and changes nothing.
func TestTopNAdmits(t *testing.T) {
	less := func(a, b *int) bool { return *a < *b }
	if NewTopN(0, less).Admits(-1) {
		t.Error("n=0 admitted a row")
	}
	top := NewTopN(3, less)
	for _, v := range []int{5, 9} {
		top.Push(v)
	}
	if !top.Admits(100) {
		t.Error("a selection that is not full refused a row")
	}
	top.Push(7)
	for v, want := range map[int]bool{9: false, 10: false, 8: true, 7: true, -1: true} {
		if got := top.Admits(v); got != want {
			t.Errorf("full {5 7 9}: Admits(%d) = %v, want %v", v, got, want)
		}
	}
	if got := top.Sorted(); !reflect.DeepEqual(got, []int{5, 7, 9}) {
		t.Errorf("Admits changed the selection: %v", got)
	}

	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5} {
		top := NewTopN(n, less)
		for _, v := range rng.Perm(60) {
			admitted := top.Admits(v)
			top.Push(v)
			rows := top.Sorted()
			if kept := slices.Contains(rows, v); admitted != kept {
				t.Fatalf("n=%d: Admits(%d) = %v, but a push kept it: %v", n, v, admitted, kept)
			}
			for _, r := range rows {
				top.Push(r)
			}
		}
	}
}

// TestTopNAdmitsAllocatesNothing: the staged row lives in the selection's
// own array, so asking allocates nothing, even for a row type a pointer
// to the parameter would move to the heap.
func TestTopNAdmitsAllocatesNothing(t *testing.T) {
	type row struct {
		score float64
		id    string
	}
	top := NewTopN(4, func(a, b *row) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id < b.id
	})
	for i := range 8 {
		top.Push(row{score: float64(i), id: "m"})
	}
	if got := testing.AllocsPerRun(100, func() {
		top.Admits(row{score: 5.5, id: "x"})
		top.Admits(row{score: 1, id: "y"})
	}); got != 0 {
		t.Errorf("Admits allocated %v times a run, want 0", got)
	}
}

// TestBarMatchesAdmits: a row comes before Bar, or Bar is nil, exactly
// when Admits would keep it.
func TestBarMatchesAdmits(t *testing.T) {
	less := func(a, b *int) bool { return *a < *b }
	top := NewTopN(3, less)
	for _, v := range []int{9, 4, 7, 1, 8, 3, 5} {
		for probe := 0; probe < 10; probe++ {
			bar := top.Bar()
			if got, want := bar == nil || less(&probe, bar), top.Admits(probe); got != want {
				t.Errorf("after pushes up to %d: Bar says %v for %d, Admits %v", v, got, probe, want)
			}
		}
		top.Push(v)
	}
}
