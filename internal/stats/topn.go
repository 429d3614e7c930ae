package stats

// TopN keeps the n first rows of a stream under a strict total order
// without sorting the stream: a bounded binary heap with the worst kept
// row at the root, so a row that does not make the cut costs one
// comparison and rows that do cost O(log n). Because the order is total,
// the result does not depend on the order rows arrive in.
type TopN[T any] struct {
	n    int
	less func(a, b *T) bool
	rows []T // max-heap under less: rows[0] is the worst row kept
}

// NewTopN returns a selector for the n first rows under less, which must
// be a strict total order (no two distinct rows compare equal).
func NewTopN[T any](n int, less func(a, b *T) bool) *TopN[T] {
	return &TopN[T]{n: n, less: less}
}

// Push offers one row.
func (t *TopN[T]) Push(row T) {
	// The candidate is staged in the slice so less only ever sees pointers
	// into it: a pointer to the parameter would move every row to the heap.
	t.rows = append(t.rows, row)
	last := len(t.rows) - 1
	if last < t.n {
		for i := last; i > 0; {
			parent := (i - 1) / 2
			if !t.less(&t.rows[parent], &t.rows[i]) {
				break
			}
			t.rows[parent], t.rows[i] = t.rows[i], t.rows[parent]
			i = parent
		}
		return
	}
	if last > 0 && t.less(&t.rows[last], &t.rows[0]) {
		t.rows[0] = t.rows[last]
		t.siftDown(0, last)
	}
	t.rows = t.rows[:last]
}

// Admits reports whether row would be kept if it were pushed now: the
// selection is not full, or row comes before the worst row kept. It keeps
// nothing. A ranking asks with a row's best case before paying for the
// folds that give its real one: a best case refused now means the real row
// would be pushed and dropped, so skipping it changes no answer.
func (t *TopN[T]) Admits(row T) bool {
	// Staged like Push's candidate, and for the same reason.
	t.rows = append(t.rows, row)
	last := len(t.rows) - 1
	ok := last < t.n || (last > 0 && t.less(&t.rows[last], &t.rows[0]))
	t.rows = t.rows[:last]
	return ok
}

// Bar returns the worst kept row once the selection is full — a row is
// kept only if it comes before this one — and nil while it has room (or
// for n ≤ 0, where Push keeps nothing whatever is asked). A
// ranking whose best case costs less to compare than to build as a row
// asks Bar instead of Admits; the pointer holds until the next Push.
func (t *TopN[T]) Bar() *T {
	if len(t.rows) < t.n || len(t.rows) == 0 {
		return nil
	}
	return &t.rows[0]
}

// siftDown restores the heap property below i within rows[:n].
func (t *TopN[T]) siftDown(i, n int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if t.less(&t.rows[worst], &t.rows[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.rows[i], t.rows[worst] = t.rows[worst], t.rows[i]
		i = worst
	}
}

// Sorted returns the kept rows, first to last under less (nil when no row
// was pushed), and leaves the selector empty.
func (t *TopN[T]) Sorted() []T {
	// In-place heapsort: moving the worst row behind the shrinking heap
	// leaves the slice ascending.
	for end := len(t.rows) - 1; end > 0; end-- {
		t.rows[0], t.rows[end] = t.rows[end], t.rows[0]
		t.siftDown(0, end)
	}
	out := t.rows
	t.rows = nil
	return out
}
