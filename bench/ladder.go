package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
)

// ladder executes each request of a list at successive depths, one request
// in flight at a time:
//
//	L0  pkg/client -> gateway -> node        (only when viaGateway is set)
//	L1  pkg/client -> node
//	L2  API.Handler().ServeHTTP in-process, the exchange L1 put on the wire
//	L3  the matching Engine method(s)
//	L4  the store folds that kind reads
//
// L0 and L1 nest for real (client.call > client.roundtrip > [gateway.handler
// >] node.handler); L2..L4 are replays attached to the request afterwards.
// Each in-process rung has its own engine — and so its own response cache —
// over the same store: replaying a request at one depth must not warm the
// next depth's cache, or a cold request would look hot from L2 down.
type ladder struct {
	tr  *tracer
	cur *atomic.Int64

	direct     func(i int, r request) (caller, *tap) // L1 target for request i (-1: warming)
	viaGateway *caller                               // L0, nil without a gateway

	base int // request id of the next run's first request (runs may repeat)

	l2  http.Handler  // rung L2: a second API stack over the same store
	e3  *query.Engine // rung L3: a third engine
	db  *store.Store
	cat *market.Catalog
	now func() time.Time
}

// rung samples, one entry per traced request, microseconds.
type ladderStats struct {
	n                                  int
	idx                                []int // request index of each sample
	l0, l1, self, wire, http, eng, fld []float64
	sum                                []float64
	hop                                []float64
	crossings, overlap, prices         []float64
	advisorRank                        []float64
	byOp                               map[string][]float64
	respBytes                          []float64
	notModified                        int
	httpMallocs, httpBytes             uint64
	engMallocs, foldMallocs            uint64
	engCalls, foldCalls                int
	failed                             int
	firstErr                           error
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// allocDelta runs fn and returns the heap objects and bytes it allocated.
// Only meaningful single-flight; ReadMemStats stops the world, so it is
// called outside anything timed.
func allocDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// warm replays requests through every in-process rung untimed, so a hot
// working set is as resident in the rungs' caches as in the node's. The
// caller passes requests the traced list does not contain.
func (l *ladder) warm(list []request) {
	ctx := context.Background()
	for _, r := range list {
		k, tp := l.direct(-1, r)
		tp.capture = true
		if err := k.do(ctx, r); err != nil {
			continue
		}
		ex := tp.last
		req := httptest.NewRequest(ex.method, ex.url, bytes.NewReader(ex.reqBody))
		req.Header = ex.header
		l.l2.ServeHTTP(httptest.NewRecorder(), req)
		for _, p := range r.parts() {
			_, _ = callEngine(l.e3, p, l.now()) // warming only
		}
	}
}

// ladderBlock is how many requests one rung handles before the next rung
// takes the same requests.
const ladderBlock = 50

// run climbs the ladder block by block: within a block each rung is a tight
// loop over the block's requests whose allocations are one MemStats delta
// (reading MemStats stops the world, so not per request), and the rungs of
// a request run within milliseconds of each other, under the same machine
// conditions. L1 goes before L2 because L2 replays the exchange L1 captured.
func (l *ladder) run(list []request) (*ladderStats, error) {
	base := l.base
	l.base += len(list)
	ctx := context.Background()
	st := &ladderStats{byOp: make(map[string][]float64)}
	fail := func(err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}

	type l1out struct {
		ok             bool
		ex             exchange
		call, rt, node int // span IDs; node is the L2 replay's parent
		now            time.Time
	}
	n := len(list)
	l0, l2, l3, l4 := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	outs, folds := make([]l1out, n), make([]foldTimes, n)
	var err error
	for lo := 0; lo < n && err == nil; lo += ladderBlock {
		hi := min(lo+ladderBlock, n)
		if l.viaGateway != nil {
			for i := lo; i < hi; i++ {
				r := list[i]
				l.cur.Store(int64(base + i))
				id := l.tr.begin("client.call.gateway", base+i)
				err := l.viaGateway.do(ctx, r)
				l.tr.end(id)
				if err != nil {
					fail(err)
					continue
				}
				l0[i] = id
			}
		}

		for i := lo; i < hi; i++ {
			r := list[i]
			if l.viaGateway != nil && l0[i] == 0 {
				continue
			}
			l.cur.Store(int64(base + i))
			k, tp := l.direct(base+i, r)
			tp.capture, tp.tr, tp.cur = true, l.tr, l.cur
			mark := l.tr.count()
			id := l.tr.begin("client.call", base+i)
			err := k.do(ctx, r)
			l.tr.end(id)
			if err != nil {
				fail(err)
				continue
			}
			rt, ok := l.tr.find(base+i, "client.roundtrip", mark)
			if !ok {
				return nil, fmt.Errorf("ladder: request %d recorded no round trip", i)
			}
			// The in-process rungs chain as replayed children: L2 under the
			// node's handler span (under the round trip, for a node whose
			// handler is not ours to wrap), L3 under L2, L4 under L3.
			parent := rt.ID
			if h, ok := l.tr.find(base+i, "node.handler", mark); ok {
				parent = h.ID
			}
			outs[i] = l1out{ok: true, ex: tp.last, call: id, rt: rt.ID, node: parent, now: l.now()}
		}

		m, b := allocDelta(func() {
			for i := lo; i < hi; i++ {
				o := outs[i]
				if !o.ok {
					continue
				}
				req := httptest.NewRequest(o.ex.method, o.ex.url, bytes.NewReader(o.ex.reqBody))
				req.Header = o.ex.header
				rec := httptest.NewRecorder()
				l2[i] = l.tr.replay("query.http", base+i, o.node, func() { l.l2.ServeHTTP(rec, req) })
				if rec.Code != o.ex.status && err == nil {
					err = fmt.Errorf("ladder: request %d (%s): in-process status %d, wire status %d", i, list[i].Op, rec.Code, o.ex.status)
				}
			}
		})
		st.httpMallocs, st.httpBytes = st.httpMallocs+m, st.httpBytes+b

		m, _ = allocDelta(func() {
			for i := lo; i < hi; i++ {
				o := outs[i]
				if !o.ok {
					continue
				}
				r := list[i]
				l3[i] = l.tr.replay("query.engine", base+i, l2[i], func() {
					if o.ex.status == http.StatusNotModified {
						return // a 304 never reaches the engine
					}
					for _, p := range r.parts() {
						_, _ = callEngine(l.e3, p, o.now) // its error already failed L1
						st.engCalls++
					}
				})
				if r.Op == "advise" {
					st.advisorRank = append(st.advisorRank, us(l.tr.get(l3[i]).dur()))
				}
			}
		})
		st.engMallocs += m

		m, _ = allocDelta(func() {
			for i := lo; i < hi; i++ {
				o := outs[i]
				if !o.ok {
					continue
				}
				l4[i] = l.tr.replay("store.fold", base+i, l3[i], func() { folds[i] = callFolds(l.db, l.cat, list[i], o.now) })
				st.foldCalls++
			}
		})
		st.foldMallocs += m
	}
	if err != nil {
		return nil, err
	}

	// Self time = span - children (trace.go). The rungs then add up to the
	// client-observed latency except for the handler's residual: the part
	// of the real in-situ handler time its in-process replay (L2) did not
	// reproduce, which report() warns about beyond 10%.
	l.tr.mu.Lock()
	spans := append([]Span(nil), l.tr.spans...)
	l.tr.mu.Unlock()
	self := selfTimes(spans)
	for i, o := range outs {
		if !o.ok {
			continue
		}
		d1, d2, d3, d4 := spans[o.call-1].dur(), spans[l2[i]-1].dur(), spans[l3[i]-1].dur(), int64(folds[i].total)
		// When the folds alone take longer than the engine call, the engine
		// answered from its cache and never ran them: all of L3 is its own.
		engSelf := d3
		if d4 < d3 {
			engSelf = d3 - d4
		}
		st.n++
		st.idx = append(st.idx, base+i)
		st.l1 = append(st.l1, us(d1))
		st.self = append(st.self, us(self[o.call]))
		st.wire = append(st.wire, us(self[o.rt]))
		st.http = append(st.http, us(self[l2[i]]))
		st.eng = append(st.eng, us(engSelf))
		st.fld = append(st.fld, us(d4))
		st.sum = append(st.sum, us(self[o.call]+self[o.rt]+d2))
		st.byOp[list[i].Op] = append(st.byOp[list[i].Op], us(d1))
		st.respBytes = append(st.respBytes, float64(len(o.ex.body)))
		if o.ex.status == http.StatusNotModified {
			st.notModified++
		}
		if l0[i] != 0 {
			d0 := spans[l0[i]-1].dur()
			st.l0 = append(st.l0, us(d0))
			st.hop = append(st.hop, us(d0-d1))
		}
		for _, f := range []struct {
			d   time.Duration
			dst *[]float64
		}{{folds[i].crossings, &st.crossings}, {folds[i].overlap, &st.overlap}, {folds[i].prices, &st.prices}} {
			if f.d > 0 {
				*f.dst = append(*f.dst, us(int64(f.d)))
			}
		}
	}
	return st, nil
}

// merge appends another run's samples.
func (st *ladderStats) merge(o *ladderStats) {
	st.n += o.n
	st.idx = append(st.idx, o.idx...)
	for _, p := range []struct{ dst, src *[]float64 }{
		{&st.l0, &o.l0}, {&st.l1, &o.l1}, {&st.self, &o.self}, {&st.wire, &o.wire}, {&st.http, &o.http},
		{&st.eng, &o.eng}, {&st.fld, &o.fld}, {&st.sum, &o.sum}, {&st.hop, &o.hop},
		{&st.crossings, &o.crossings}, {&st.overlap, &o.overlap}, {&st.prices, &o.prices},
		{&st.advisorRank, &o.advisorRank}, {&st.respBytes, &o.respBytes},
	} {
		*p.dst = append(*p.dst, *p.src...)
	}
	for op, v := range o.byOp {
		st.byOp[op] = append(st.byOp[op], v...)
	}
	st.notModified += o.notModified
	st.httpMallocs, st.httpBytes = st.httpMallocs+o.httpMallocs, st.httpBytes+o.httpBytes
	st.engMallocs, st.foldMallocs = st.engMallocs+o.engMallocs, st.foldMallocs+o.foldMallocs
	st.engCalls, st.foldCalls = st.engCalls+o.engCalls, st.foldCalls+o.foldCalls
	st.failed += o.failed
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
}

func p50(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// report turns the rung samples into the read-ladder layer metrics.
func (st *ladderStats) report(ms *metricSet, res *result) {
	n := st.n
	if n == 0 {
		return
	}
	// The client-observed latency is the outermost rung's: through the
	// gateway where there is one.
	top, sum := st.l1, st.sum
	if len(st.l0) == n {
		top = st.l0
		sum = make([]float64, n)
		for i := range sum {
			sum[i] = st.sum[i] + st.hop[i]
		}
	}
	l1 := sortedCopy(top)
	ms.set("client.read_p50_us", percentile(l1, 0.5), n)
	ms.setTail("client.read_p99_us", l1, 0.99)
	ms.set("client.self_us_p50", p50(st.self), n)
	ms.set("client.wire_us_p50", p50(st.wire), n)
	ms.set("client.failed_ops", float64(st.failed), n+st.failed)
	for _, op := range readOps {
		v := sortedCopy(st.byOp[op])
		if len(v) == 0 {
			continue
		}
		ms.set("client."+op+".p50_us", percentile(v, 0.5), len(v))
		ms.setTail("client."+op+".p99_us", v, 0.99)
	}
	if len(st.hop) > 0 {
		ms.set("gateway.hop_us_p50", p50(st.hop), len(st.hop))
	}

	ms.set("query.http.self_us_p50", p50(st.http), n)
	ms.set("query.http.resp_bytes_p50", p50(st.respBytes), n)
	ms.set("query.http.allocs_per_req", float64(st.httpMallocs)/float64(n), n)
	ms.set("query.http.alloc_bytes_per_req", float64(st.httpBytes)/float64(n), n)
	ms.set("query.http.not_modified_share", float64(st.notModified)/float64(n), n)
	ms.set("query.engine.self_us_p50", p50(st.eng), n)
	ms.set("query.engine.allocs_per_call", float64(st.engMallocs)/float64(max(st.engCalls, 1)), st.engCalls)
	if len(st.advisorRank) > 0 {
		ms.set("advisor.rank_us_p50", p50(st.advisorRank), len(st.advisorRank))
	}
	ms.set("store.fold.us_p50", p50(st.fld), n)
	ms.set("store.fold.allocs_per_call", float64(st.foldMallocs)/float64(max(st.foldCalls, 1)), st.foldCalls)
	for _, f := range []struct {
		name string
		v    []float64
	}{
		{"store.fold.crossings_us_p50", st.crossings},
		{"store.fold.overlap_us_p50", st.overlap},
		{"store.fold.prices_us_p50", st.prices},
	} {
		if len(f.v) > 0 {
			ms.set(f.name, p50(f.v), len(f.v))
		}
	}

	ratio := p50(sum) / percentile(l1, 0.5)
	ms.set("ladder.sum_ratio", ratio, n)
	if ratio < 0.9 || ratio > 1.1 {
		res.warn("read ladder: rung self times sum to %.2fx the client-observed median (want 0.9..1.1)", ratio)
	}
}
