package stats

import (
	"math/rand"
	"reflect"
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
