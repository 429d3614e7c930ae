package experiment

import (
	"bytes"
	"io"
	"testing"
	"time"

	"spotlight/internal/obs"
	"spotlight/internal/store"
)

// follower accepts every position of a follow stream.
type follower struct{}

func (follower) Hello(store.Position) error                    { return nil }
func (follower) Snapshot() error                               { return nil }
func (follower) Position(store.Position, uint64, uint64) error { return nil }

// imageOf is the store's image as a follow stream carries it: two stores
// hold the same records, family by family and market by market, iff their
// images are equal.
func imageOf(t *testing.T, db *store.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := store.NewStreamWriter(&b, store.Position{}).Snapshot(db, time.Time{}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// refused reads a store's count of append rounds refused for going back in
// time.
func refused(reg *obs.Registry) uint64 {
	return reg.Counter("spotlight_store_append_refused_total", "").Value()
}

// TestProducersKeepTimeOrder holds the producers to the store's append
// contract: the monitor of a seed-42 1-day study (the setup of
// TestStudyDigestPinned) and a follower applying its follow stream append
// every (market, family) series in time order, so neither store refuses a
// round, and the follower ends holding the leader's image.
func TestProducersKeepTimeOrder(t *testing.T) {
	leader, follow := store.New(), store.New()
	lreg, freg := obs.NewRegistry(), obs.NewRegistry()
	leader.EnableMetrics(lreg)
	follow.EnableMetrics(freg)
	st, err := New(Config{Seed: 42, Days: 1, DB: leader})
	if err != nil {
		t.Fatal(err)
	}

	// The follow stream the leader serves a follower that attached before
	// the first record: an opening position, then every round as a log
	// run, pumped after each tick so the feed's ring never laps it.
	sub := leader.Feed().Subscribe(store.SubscribeOptions{})
	defer sub.Close()
	var stream bytes.Buffer
	sw := store.NewStreamWriter(&stream, store.Position{Salt: 42})
	if err := sw.Position(st.Sim.Now()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(24*time.Hour/st.Cfg.Tick); i++ {
		st.Sim.Step()
		st.Svc.OnTick()
		for {
			evs, live := sub.Next(nil)
			if !live {
				t.Fatal("the feed's ring lapped the follow stream")
			}
			if len(evs) == 0 {
				break
			}
			if err := sw.Events(evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Position(st.Sim.Now()); err != nil {
		t.Fatal(err)
	}
	if err := follow.Follow(&stream, follower{}); err != io.EOF {
		t.Fatalf("Follow = %v, want io.EOF", err)
	}

	if n := refused(lreg); n != 0 {
		t.Errorf("the study's store refused %d append rounds, want 0", n)
	}
	if n := refused(freg); n != 0 {
		t.Errorf("the follower refused %d append rounds, want 0", n)
	}
	want, got := imageOf(t, leader), imageOf(t, follow)
	if leader.GlobalGeneration() == 0 || !bytes.Equal(got, want) {
		t.Errorf("the follower holds %d records and an image of %d bytes, the leader %d and %d",
			follow.GlobalGeneration(), len(got), leader.GlobalGeneration(), len(want))
	}
}
