package replica

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
)

// ingestRound appends one round of all record families at the given
// simulated instant, the same mix the convergence test uses.
func ingestRound(db *store.Store, ids []market.SpotID, round int, at time.Time) {
	var probes []store.ProbeRecord
	for i, id := range ids {
		probes = append(probes, store.ProbeRecord{
			At: at, Market: id, Kind: store.ProbeOnDemand,
			Trigger:  store.TriggerRecheck,
			Rejected: id == ids[2] && round >= 3 && round <= 5,
			Code:     map[bool]string{true: "ICE", false: ""}[id == ids[2] && round >= 3 && round <= 5],
			Cost:     0.01,
		})
		probes = append(probes, store.ProbeRecord{
			At: at.Add(time.Minute), Market: id, Kind: store.ProbeSpot,
			Trigger: store.TriggerSpike, TriggerMarket: ids[0], SourceKind: store.ProbeSpot,
			SpikeRatio: 1.2 + 0.1*float64(round), PriceRatio: 0.4 + 0.01*float64(i),
			Bid: 0.5, Cost: 0.02,
		})
	}
	appendProbes(db, probes)
	db.AppendSpike(store.SpikeEvent{At: at.Add(2 * time.Minute), Market: ids[round%3], Price: 0.9, Ratio: 1.2 + 0.1*float64(round), Probed: true})
	db.RecordPrice(ids[1], store.PricePoint{At: at.Add(3 * time.Minute), Price: 0.3 + 0.01*float64(round)})
	if round%3 == 0 {
		db.AppendRevocation(store.RevocationRecord{At: at.Add(4 * time.Minute), Market: ids[0], Bid: 0.5, Held: time.Duration(round+1) * time.Hour})
		db.AppendBidSpread(store.BidSpreadRecord{At: at.Add(5 * time.Minute), Market: ids[1], Published: 0.3, Intrinsic: 0.35, Attempts: 2 + round})
	}
}

func waitGeneration(t *testing.T, what string, db *store.Store, target uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for db.GlobalGeneration() != target {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached generation %d (at %d)", what, target, db.GlobalGeneration())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The durable-follower crash contract: a follower whose process dies —
// no final flush, no final cursor save, and a cursor that may trail the
// recovered WAL by several batches — restarts from its data directory,
// resumes the stream from the durable cursor, counts off exactly the
// records the recovered store already holds, and converges to answers
// byte-identical (ETags included) with a follower that never crashed.
func TestDurableFollowerCrashRecovery(t *testing.T) {
	db := store.New()
	var clockNanos atomic.Int64
	clockNanos.Store(t0.UnixNano())
	setClock := func(at time.Time) { clockNanos.Store(at.UnixNano()) }
	lapi := query.NewAPI(query.NewEngine(db, market.New()), func() time.Time {
		return time.Unix(0, clockNanos.Load()).UTC()
	})
	defer lapi.Shutdown()
	srv := httptest.NewServer(lapi.Handler())
	defer srv.Close()

	var ids []market.SpotID
	for _, id := range market.New().SpotMarkets() {
		if strings.HasPrefix(string(id.Zone), "us-east-1") {
			ids = append(ids, id)
			if len(ids) == 3 {
				break
			}
		}
	}
	if len(ids) < 3 {
		t.Fatalf("catalog has %d us-east-1 spot markets, want >= 3", len(ids))
	}

	// Follower A: durable. Follower B: in-memory reference that never
	// crashes — the oracle for what A must still look like afterwards.
	dirA := t.TempDir()
	fdbA, err := store.Open(dirA, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// CursorInterval 1ms: every drained batch flushes and saves, so the
	// on-disk WAL tracks the in-memory store closely and the phase-1
	// cursor rewind below produces a real store-ahead-of-cursor gap.
	repA, err := New(Config{Leader: srv.URL, DB: fdbA, Persist: fdbA.Persister(),
		CursorInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := repA.Start(); err != nil {
		t.Fatal(err)
	}
	fdbB := store.New()
	repB, err := New(Config{Leader: srv.URL, DB: fdbB})
	if err != nil {
		t.Fatal(err)
	}
	if err := repB.Start(); err != nil {
		t.Fatal(err)
	}
	defer repB.Close()
	for _, rep := range []*Replicator{repA, repB} {
		select {
		case <-rep.Ready():
		case <-time.After(10 * time.Second):
			t.Fatal("replicator never became ready")
		}
	}

	// Phase 1: ingest, let both followers drain, and capture the durable
	// cursor at this position — it becomes the stale cursor of the crash.
	for round := 0; round < 6; round++ {
		setClock(t0.Add(time.Duration(round) * 10 * time.Minute))
		ingestRound(db, ids, round, t0.Add(time.Duration(round)*10*time.Minute))
		time.Sleep(5 * time.Millisecond)
	}
	waitGeneration(t, "follower A", fdbA, db.GlobalGeneration())
	waitGeneration(t, "follower B", fdbB, db.GlobalGeneration())
	time.Sleep(50 * time.Millisecond) // let the last batch's cursor save land
	staleCursor, err := os.ReadFile(filepath.Join(dirA, "cursor.json"))
	if err != nil {
		t.Fatalf("no durable cursor after first apply: %v", err)
	}

	// Phase 2: more ingest, then kill A the hard way: Abandon drops the
	// persister exactly like process death (no flush, no clean marker),
	// and rewinding cursor.json to the phase-1 capture recreates the
	// worst legal crash shape — recovered WAL several batches ahead of
	// the cursor, so resume re-delivers records the store already holds.
	for round := 6; round < 12; round++ {
		setClock(t0.Add(time.Duration(round) * 10 * time.Minute))
		ingestRound(db, ids, round, t0.Add(time.Duration(round)*10*time.Minute))
		time.Sleep(5 * time.Millisecond)
	}
	waitGeneration(t, "follower A", fdbA, db.GlobalGeneration())
	time.Sleep(50 * time.Millisecond) // let the last batch flush before the "crash"
	fdbA.Persister().Abandon()
	repA.Close()
	if err := os.WriteFile(filepath.Join(dirA, "cursor.json"), staleCursor, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart A from the crashed directory.
	fdbA2, err := store.Open(dirA, store.PersistOptions{})
	if err != nil {
		t.Fatalf("reopen crashed data dir: %v", err)
	}
	if fdbA2.GlobalGeneration() == 0 {
		t.Fatal("recovered store is empty; WAL replay failed")
	}
	repA2, err := New(Config{Leader: srv.URL, DB: fdbA2, Persist: fdbA2.Persister(),
		CursorInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := repA2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		repA2.Close()
		fdbA2.Persister().Close()
	}()
	select {
	case <-repA2.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("restarted replicator never became ready")
	}

	// Phase 3: fresh ingest after the restart, then quiesce everyone at
	// the same final instant.
	for round := 12; round < 16; round++ {
		setClock(t0.Add(time.Duration(round) * 10 * time.Minute))
		ingestRound(db, ids, round, t0.Add(time.Duration(round)*10*time.Minute))
		time.Sleep(5 * time.Millisecond)
	}
	now := t0.Add(24 * time.Hour)
	setClock(now)
	waitGeneration(t, "restarted follower A", fdbA2, db.GlobalGeneration())
	waitGeneration(t, "follower B", fdbB, db.GlobalGeneration())
	deadline := time.Now().Add(15 * time.Second)
	for !repA2.Clock().Equal(now) || !repB.Clock().Equal(now) {
		if time.Now().After(deadline) {
			t.Fatalf("clocks never converged: A %v B %v want %v", repA2.Clock(), repB.Clock(), now)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if st := repA2.Status(); st.Resyncs != 0 {
		t.Errorf("restarted follower resyncs = %d, want 0 (cursor resume must be exactly-once, not a snapshot resync)", st.Resyncs)
	}

	// Serve both followers the way daemon follower mode does and demand
	// byte-identical answers — bodies and ETags — from the crashed-and-
	// recovered follower, the never-crashed follower, and the leader.
	serve := func(fdb *store.Store, rep *Replicator) *httptest.Server {
		salt, ok := rep.Salt()
		if !ok {
			t.Fatal("salt never learned")
		}
		fapi := query.NewAPI(query.NewEngine(fdb, market.New()), rep.Clock)
		t.Cleanup(fapi.Shutdown)
		fapi.SetETagSalt(salt)
		s := httptest.NewServer(fapi.Handler())
		t.Cleanup(s.Close)
		return s
	}
	srvA, srvB := serve(fdbA2, repA2), serve(fdbB, repB)

	from, to := t0.Format(time.RFC3339), now.Format(time.RFC3339)
	paths := []string{
		"/v1/summary",
		"/v1/stable?region=us-east-1&n=5&from=" + from + "&to=" + to,
		"/v1/volatile?region=us-east-1&n=5&from=" + from + "&to=" + to,
		"/v1/unavailability?kind=od&from=" + from + "&to=" + to + "&market=" + url.QueryEscape(ids[2].String()),
		"/v1/prices?from=" + from + "&to=" + to + "&market=" + url.QueryEscape(ids[1].String()),
		"/v1/outages?from=" + from + "&to=" + to + "&market=" + url.QueryEscape(ids[2].String()),
	}
	for _, path := range paths {
		ls, lbody, letag := fetch(t, srv.URL+path, "", "")
		as, abody, aetag := fetch(t, srvA.URL+path, "", "")
		bs, bbody, betag := fetch(t, srvB.URL+path, "", "")
		if ls != http.StatusOK {
			t.Fatalf("%s: leader status %d: %s", path, ls, lbody)
		}
		if as != ls || abody != lbody {
			t.Errorf("%s: recovered follower body diverged from leader\nleader:    %d %.200s\nrecovered: %d %.200s", path, ls, lbody, as, abody)
		}
		if bs != ls || bbody != lbody {
			t.Errorf("%s: reference follower body diverged from leader", path)
		}
		if letag == "" || aetag != letag || betag != letag {
			t.Errorf("%s: ETag diverged: leader %q recovered %q reference %q", path, letag, aetag, betag)
		}
		if s, _, _ := fetch(t, srvA.URL+path, "", letag); s != http.StatusNotModified {
			t.Errorf("%s: recovered follower answered %d to the leader's ETag, want 304", path, s)
		}
	}
}
