package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer's public surface, recorded by the
// benchmark around that call (nothing inside the program is instrumented).
// Start and End are nanoseconds since the tracer was created.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Req    int    `json:"req"`    // request (or tick) index the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Replayed marks a span whose call was re-executed after its parent
	// returned (the in-process rungs of the read ladder): it is attributed
	// to the parent by duration, since its own interval lies outside.
	Replayed bool `json:"replayed,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the pass ends. The traced pass is
// single-flight, so "the span currently open" is well defined even though
// client, gateway and node handler run on different goroutines: begin
// parents a new span under the innermost open one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(name string, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and anything left open inside it).
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// replay times fn and attaches it as a replayed child of parent.
func (t *tracer) replay(name string, req, parent int, fn func()) int {
	start := t.now()
	fn()
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Replayed: true})
	return id
}

// add records a root span timed elsewhere (a tick of a loop that runs
// beside the single-flight requests and must not touch the open stack).
func (t *tracer) add(name string, req int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// get returns a copy of span id.
func (t *tracer) get(id int) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// count is how many spans exist; a later find can start there.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// find returns the first span at index >= from that belongs to req and has
// the given name.
func (t *tracer) find(req int, name string, from int) (Span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].Req == req && t.spans[i].Name == name {
			return t.spans[i], true
		}
	}
	return Span{}, false
}

// selfTimes returns each span's duration minus what its children cover:
// the union of in-place children's intervals clipped to the parent, plus
// the full duration of replayed children. Never negative.
func selfTimes(spans []Span) map[int]int64 {
	type iv struct{ a, b int64 }
	inPlace := make(map[int][]iv)
	replayed := make(map[int]int64)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if s.Replayed {
			replayed[s.Parent] += s.dur()
			continue
		}
		p := byID[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			inPlace[s.Parent] = append(inPlace[s.Parent], iv{a, b})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := replayed[s.ID]
		ivs := inPlace[s.ID]
		// Union of intervals: sort by start (insertion sort; a span has a
		// handful of children) and sweep.
		for i := 1; i < len(ivs); i++ {
			for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
				ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
			}
		}
		var end int64 = -1 << 62
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		out[s.ID] = max(s.dur()-covered, 0)
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
