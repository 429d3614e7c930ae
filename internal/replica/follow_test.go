package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// testLeader serves a store under a fixed ETag salt and a clock the test
// sets.
type testLeader struct {
	db    *store.Store
	api   *query.API
	srv   *httptest.Server
	clock atomic.Int64
}

func newTestLeader(t *testing.T, db *store.Store, salt uint64, wrap func(http.Handler) http.Handler) *testLeader {
	t.Helper()
	l := &testLeader{db: db}
	l.clock.Store(t0.UnixNano())
	l.api = query.NewAPI(query.NewEngine(db, market.New()), func() time.Time { return time.Unix(0, l.clock.Load()).UTC() })
	l.api.SetETagSalt(salt)
	h := l.api.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	l.srv = httptest.NewServer(h)
	t.Cleanup(func() { l.api.Shutdown(); l.srv.Close() })
	return l
}

// follow starts a follower of l (durable when persist is set) and waits
// until it is ready.
func follow(t *testing.T, l *testLeader, db *store.Store, persist *store.Persister) *Replicator {
	t.Helper()
	rep, err := New(Config{Leader: l.srv.URL, DB: db, Persist: persist, CursorInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	select {
	case <-rep.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("replicator never became ready")
	}
	return rep
}

// serveFollower assembles a follower's query surface the way daemon
// follower mode does.
func serveFollower(t *testing.T, db *store.Store, rep *Replicator) *httptest.Server {
	t.Helper()
	salt, ok := rep.Salt()
	if !ok {
		t.Fatal("salt never learned")
	}
	fapi := query.NewAPI(query.NewEngine(db, market.New()), rep.Clock)
	fapi.SetETagSalt(salt)
	fapi.SetReplication(rep.Status)
	s := httptest.NewServer(fapi.Handler())
	t.Cleanup(func() { fapi.Shutdown(); s.Close() })
	return s
}

// usEast1 returns the first n us-east-1 spot markets of the catalog.
func usEast1(t *testing.T, n int) []market.SpotID {
	t.Helper()
	var ids []market.SpotID
	for _, id := range market.New().SpotMarkets() {
		if strings.HasPrefix(string(id.Zone), "us-east-1") && len(ids) < n {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("catalog has %d us-east-1 spot markets, want %d", len(ids), n)
	}
	return ids
}

// ingestDays appends a study of every record family at ten-minute rounds
// over [from, from+days): eight prices per market and round, so six days
// of four markets pass the feed's 32,768-event ring. It returns the instant
// after the last round.
func ingestDays(db *store.Store, ids []market.SpotID, from time.Time, days int) time.Time {
	at := from
	for end := from.Add(time.Duration(days) * 24 * time.Hour); at.Before(end); at = at.Add(10 * time.Minute) {
		round := int(at.Sub(t0) / (10 * time.Minute))
		var probes []store.ProbeRecord
		for i, id := range ids {
			out := (round/30+i)%7 == 0 // outages of five hours
			probes = append(probes,
				store.ProbeRecord{At: at, Market: id, Kind: store.ProbeOnDemand, Trigger: store.TriggerRecheck,
					Rejected: out, Code: map[bool]string{true: "ICE"}[out], Cost: 0.01},
				store.ProbeRecord{At: at.Add(time.Minute), Market: id, Kind: store.ProbeSpot, Trigger: store.TriggerSpike,
					TriggerMarket: ids[0], SourceKind: store.ProbeSpot, SpikeRatio: 1.1, Bid: 0.5, Cost: 0.02})
			var ps []store.PricePoint
			for k := 0; k < 8; k++ {
				ps = append(ps, store.PricePoint{At: at.Add(time.Duration(k) * time.Minute), Price: 0.1 + 0.01*float64((round*7+i*3+k)%17)})
			}
			for _, p := range ps {
				db.RecordPrice(id, p)
			}
		}
		appendProbes(db, probes)
		db.AppendSpike(store.SpikeEvent{At: at.Add(2 * time.Minute), Market: ids[round%len(ids)],
			Price: 0.9, Ratio: 0.8 + 0.05*float64(round%10), Probed: round%2 == 0})
		if round%12 == 0 {
			db.AppendRevocation(store.RevocationRecord{At: at.Add(4 * time.Minute), Market: ids[0], Bid: 0.5, Held: time.Duration(round%5+1) * time.Hour})
			db.AppendBidSpread(store.BidSpreadRecord{At: at.Add(5 * time.Minute), Market: ids[1], Published: 0.3, Intrinsic: 0.35, Attempts: 2 + round%4})
		}
	}
	return at
}

// absoluteWindows lists query paths over every window between two day
// boundaries of [t0, t0+days], each market's prices, outages and
// unavailability included.
func absoluteWindows(ids []market.SpotID, days int) []string {
	var paths []string
	day := func(d int) string {
		return url.QueryEscape(t0.Add(time.Duration(d) * 24 * time.Hour).Format(time.RFC3339))
	}
	for i := 0; i < days; i++ {
		for j := i + 1; j <= days; j++ {
			win := "from=" + day(i) + "&to=" + day(j)
			paths = append(paths, "/v1/stable?region=us-east-1&n=10&"+win, "/v1/volatile?region=us-east-1&n=10&"+win)
			for _, id := range ids {
				m := url.QueryEscape(id.String())
				paths = append(paths, "/v1/prices?market="+m+"&"+win, "/v1/outages?market="+m+"&"+win,
					"/v1/unavailability?kind=od&market="+m+"&"+win)
			}
		}
	}
	return paths
}

// sameAnswers requires the follower to answer every path with the leader's
// body and ETag.
func sameAnswers(t *testing.T, leader, follower string, paths []string) {
	t.Helper()
	for _, p := range paths {
		ls, lbody, letag := fetch(t, leader+p, "", "")
		fs, fbody, fetag := fetch(t, follower+p, "", "")
		if ls != http.StatusOK || fs != ls || fbody != lbody {
			t.Fatalf("%s: follower answered %d %.200s, leader %d %.200s", p, fs, fbody, ls, lbody)
		}
		if letag == "" || fetag != letag {
			t.Fatalf("%s: ETag %q on the follower, %q on the leader", p, fetag, letag)
		}
	}
}

// converge waits until the follower holds the leader's generation and clock.
func converge(t *testing.T, l *testLeader, db *store.Store, rep *Replicator) {
	t.Helper()
	waitGeneration(t, "follower", db, l.db.GlobalGeneration())
	now := time.Unix(0, l.clock.Load()).UTC()
	deadline := time.Now().Add(10 * time.Second)
	for !rep.Clock().Equal(now) {
		if time.Now().After(deadline) {
			t.Fatalf("follower clock %v, leader %v", rep.Clock(), now)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range l.db.Markets() {
		if got, want := db.Generation(id), l.db.Generation(id); got != want {
			t.Fatalf("%v: follower generation %d, leader %d", id, got, want)
		}
	}
}

// A follower attached to a leader six simulated days old — its ring long
// overrun, so no replay could bring the history — holds the whole of it:
// every absolute window answers as the leader does, bodies and ETags,
// price means older than a day included. The same holds against a durable
// leader whose log a snapshot has compacted.
func TestFreshFollowerHoldsTheWholeHistory(t *testing.T) {
	ids := usEast1(t, 4)
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			db, salt := store.New(), uint64(0xa11ce)
			if durable {
				var err error
				if db, err = store.Open(t.TempDir(), store.PersistOptions{}); err != nil {
					t.Fatal(err)
				}
				defer db.Persister().Close()
				salt = db.Persister().Salt()
			}
			l := newTestLeader(t, db, salt, nil)
			db.Feed().Arm() // as a serving leader with watchers keeps it
			at := ingestDays(db, ids, t0, 3)
			if durable {
				if err := db.Persister().Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			l.clock.Store(ingestDays(db, ids, at, 3).UnixNano())
			if st := db.Feed().Stats(); st.Published <= 32768 {
				t.Fatalf("the leader published %d events, which its ring still holds", st.Published)
			}

			fdb := store.New()
			rep := follow(t, l, fdb, nil)
			converge(t, l, fdb, rep)
			if st := rep.Status(); st.Resyncs != 0 {
				t.Fatalf("status %+v: a snapshot to an empty follower is no resync", st)
			}
			sameAnswers(t, l.srv.URL, serveFollower(t, fdb, rep).URL, absoluteWindows(ids, 6))
		})
	}
}

// stallingWriter blocks every write of a stream while its gate is shut.
type stallingWriter struct {
	http.ResponseWriter
	gate *sync.RWMutex
}

func (s stallingWriter) Write(b []byte) (int, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.ResponseWriter.Write(b)
}

func (s stallingWriter) Flush() { s.ResponseWriter.(http.Flusher).Flush() }

// A connected follower whose stream stalls while the leader publishes past
// its ring is cut off, resumes with a snapshot, and lands exactly on the
// leader's generations — no record applied twice.
func TestStalledFollowerConvergesPastTheRing(t *testing.T) {
	ids := usEast1(t, 4)
	var gate sync.RWMutex
	l := newTestLeader(t, store.New(), 0xb0b, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v2/watch" {
				w = stallingWriter{w, &gate}
			}
			h.ServeHTTP(w, r)
		})
	})
	at := ingestDays(l.db, ids, t0, 1)
	fdb := store.New()
	rep := follow(t, l, fdb, nil)
	converge(t, l, fdb, rep)

	gate.Lock() // the leader's next write to the follower blocks
	at = ingestDays(l.db, ids, at, 6)
	l.clock.Store(at.UnixNano())
	time.Sleep(100 * time.Millisecond)
	gate.Unlock()

	converge(t, l, fdb, rep)
	if st := rep.Status(); st.Resyncs == 0 {
		t.Fatalf("status %+v: the stall never fell out of the ring", st)
	}
	sameAnswers(t, l.srv.URL, serveFollower(t, fdb, rep).URL, absoluteWindows(ids, 7))
}

// The machine-crash shape: a durable follower's log loses its tail behind
// a cursor that was already saved (fsynced) past it. The recovered store
// is behind its cursor, so the follower resumes with a snapshot instead of
// by ordinal, and converges on the leader's exact state.
func TestDurableFollowerRecoversALogTailLostBehindItsCursor(t *testing.T) {
	ids := usEast1(t, 4)
	l := newTestLeader(t, store.New(), 0xc0ffee, nil)
	at := ingestDays(l.db, ids, t0, 2)

	dir := t.TempDir()
	fdb, err := store.Open(dir, store.PersistOptions{SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rep := follow(t, l, fdb, fdb.Persister())
	waitGeneration(t, "durable follower", fdb, l.db.GlobalGeneration())
	at = ingestDays(l.db, ids, at, 1) // streamed as runs: the cursor holds a ring position
	waitGeneration(t, "durable follower", fdb, l.db.GlobalGeneration())
	rep.Close() // the cursor is saved at the follower's generation
	held := fdb.GlobalGeneration()
	fdb.Persister().Abandon()
	logs, _ := filepath.Glob(filepath.Join(dir, "wal", "log-*.wal"))
	if len(logs) == 0 {
		t.Fatal("no log files")
	}
	newest := logs[len(logs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	// Nothing new arrives: no frame would show the follower its gap.
	l.clock.Store(at.UnixNano())
	fdb2, err := store.Open(dir, store.PersistOptions{SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fdb2.Persister().Close()
	if fdb2.GlobalGeneration() >= held {
		t.Fatal("the truncation lost nothing")
	}
	rep2 := follow(t, l, fdb2, fdb2.Persister())
	converge(t, l, fdb2, rep2)
	if st := rep2.Status(); st.Resyncs != 1 {
		t.Fatalf("status %+v: want the one snapshot that repairs the lost tail", st)
	}
	sameAnswers(t, l.srv.URL, serveFollower(t, fdb2, rep2).URL, absoluteWindows(ids, 3))
}

// A leader whose history is another than the one the follower's store was
// built from — a restarted in-memory leader, behind the same address — is
// refused: nothing of its stream applies, health turns degraded and names
// both salts.
func TestFollowerRefusesAForeignHistory(t *testing.T) {
	ids := usEast1(t, 4)
	var current atomic.Pointer[http.Handler]
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()
	mount := func(salt uint64) *testLeader {
		l := newTestLeader(t, store.New(), salt, nil)
		h := l.api.Handler()
		current.Store(&h)
		return l
	}
	first := mount(0xaaaa)
	ingestDays(first.db, ids, t0, 1)
	fdb := store.New()
	rep, err := New(Config{Leader: front.URL, DB: fdb})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitGeneration(t, "follower", fdb, first.db.GlobalGeneration())
	held := fdb.GlobalGeneration()

	second := mount(0xbbbb)
	ingestDays(second.db, ids, t0, 2)
	first.api.Shutdown() // the stream breaks; the follower reconnects to the new leader
	fsrv := serveFollower(t, fdb, rep)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h api.Health
		if _, body, _ := fetch(t, fsrv.URL+"/v2/health", "", ""); json.Unmarshal([]byte(body), &h) != nil {
			t.Fatalf("health body %s", body)
		}
		if h.Status == "degraded" && h.Replication != nil && strings.Contains(h.Replication.Error, "bbbb") &&
			strings.Contains(h.Replication.Error, "aaaa") && !h.Replication.Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reported the refusal: %+v %+v", h, h.Replication)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := fdb.GlobalGeneration(); got != held {
		t.Fatalf("the foreign stream applied: generation %d, was %d", got, held)
	}
}

// The cursor round trip: a durable follower's salt, resume token and clock
// load back as saved; a store behind its cursor drops the token; a cursor
// of the earlier schema loads; a corrupt or future one refuses.
func TestCursorRoundTripsSaltTokenAndClock(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := db.Persister()
	defer p.Close()

	cfg := Config{Leader: "http://127.0.0.1:9", DB: db, Persist: p}
	r1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := store.Position{Salt: 0x1234abcd5678ef90, Seq: 17, Gen: 245, Clock: t0.Add(time.Hour)}
	if err := (follower{r1}).Hello(pos); err != nil { // an empty store adopts the salt
		t.Fatal(err)
	}
	db.AppendSpike(store.SpikeEvent{At: t0, Market: usEast1(t, 1)[0], Ratio: 1.2})
	_ = (follower{r1}).Position(pos, 1, 0)
	r1.persistCursor(true)

	r2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if salt, ok := r2.Salt(); !ok || salt != pos.Salt {
		t.Errorf("salt = %#x (known %v), want %#x", salt, ok, pos.Salt)
	}
	if !r2.Clock().Equal(pos.Clock) {
		t.Errorf("clock = %v, want %v", r2.Clock(), pos.Clock)
	}
	if r2.token != pos.Token() {
		t.Errorf("token = %q, want %q", r2.token, pos.Token())
	}
	select {
	case <-r2.Ready():
	default:
		t.Error("a recovered cursor does not make the follower ready")
	}

	data, _, _ := p.LoadCursor()
	for _, tc := range []struct {
		name, cursor, token, err string
	}{
		{"store behind its cursor", strings.Replace(string(data), `"generation":1`, `"generation":2`, 1), "", ""},
		{"earlier schema", `{"version":1,"salt":"1234abcd5678ef90","lastEventId":"` + pos.Token() + `","markets":{"x":3}}`, pos.Token(), ""},
		{"corrupt", "{broken", "", "decode cursor"},
		{"future version", `{"version":999}`, "", "version"},
	} {
		if err := p.SaveCursor([]byte(tc.cursor)); err != nil {
			t.Fatal(err)
		}
		r, err := New(cfg)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || r.token != tc.token {
			t.Errorf("%s: token %q, err %v; want token %q", tc.name, r.token, err, tc.token)
		}
	}
}

// Two followers fed the same stream publish identical local feed
// sequences — Seq, Gen and ordinals included: the follower's rounds are a
// pure function of the stream.
func TestFollowerFeedOrderIsDeterministic(t *testing.T) {
	leader := store.New()
	sub := leader.Feed().Subscribe(store.SubscribeOptions{})
	var stream bytes.Buffer
	sw := store.NewStreamWriter(&stream, store.Position{Salt: 7})
	_ = sw.Position(t0)
	for round := 0; round < 2; round++ {
		for i := 0; i < 48; i++ {
			id := market.SpotID{Zone: market.Zone(fmt.Sprintf("us-east-1%c", 'a'+i%6)),
				Type: market.InstanceType(fmt.Sprintf("m%d.large", i/6)), Product: market.ProductLinux}
			at := t0.Add(time.Duration(round*48+i) * time.Second)
			leader.RecordPrice(id, store.PricePoint{At: at, Price: float64(i)})
			leader.RecordPrice(id, store.PricePoint{At: at.Add(time.Millisecond), Price: 1})
		}
	}
	evs, _ := sub.Next(make([]store.Event, 0, 1024))
	_ = sw.Events(evs)
	_ = sw.Position(t0)

	run := func() []store.Event {
		db := store.New()
		local := db.Feed().Subscribe(store.SubscribeOptions{})
		defer local.Close()
		r, err := New(Config{Leader: "http://leader.invalid", DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Follow(bytes.NewReader(stream.Bytes()), follower{r}); err.Error() != "EOF" {
			t.Fatalf("follow: %v", err)
		}
		out, _ := local.Next(make([]store.Event, 0, 1024))
		return out
	}
	first := run()
	if len(first) != len(evs) {
		t.Fatalf("follower published %d events, the leader %d", len(first), len(evs))
	}
	for i := range evs {
		if first[i].Market != evs[i].Market || first[i].Ordinal != evs[i].Ordinal || !first[i].At.Equal(evs[i].At) {
			t.Fatalf("event %d: follower %v #%d, leader %v #%d", i, first[i].Market, first[i].Ordinal, evs[i].Market, evs[i].Ordinal)
		}
	}
	for attempt := 0; attempt < 4; attempt++ {
		if !reflect.DeepEqual(run(), first) {
			t.Fatal("two followers fed the same stream published different local feed sequences")
		}
	}
}

// Health counts markets from the rollups rather than the market list; the
// count must still be the list's length on a leader and on its follower,
// including once a new market's first record lands.
func TestHealthCountsMarketsOnLeaderAndFollower(t *testing.T) {
	ids := usEast1(t, 2)
	l := newTestLeader(t, store.New(), 0xfeed, nil)
	ingestDays(l.db, ids, t0, 1)
	fdb := store.New()
	rep := follow(t, l, fdb, nil)
	fsrv := serveFollower(t, fdb, rep)
	check := func(want int) {
		t.Helper()
		converge(t, l, fdb, rep)
		for _, n := range []struct {
			url string
			db  *store.Store
		}{{l.srv.URL, l.db}, {fsrv.URL, fdb}} {
			var h api.Health
			if _, body, _ := fetch(t, n.url+"/v2/health", "", ""); json.Unmarshal([]byte(body), &h) != nil {
				t.Fatalf("health body %s", body)
			}
			if h.Store.Markets != len(n.db.Markets()) || h.Store.Markets != want {
				t.Fatalf("%s: health counts %d markets, the store lists %d, want %d", n.url, h.Store.Markets, len(n.db.Markets()), want)
			}
		}
	}
	check(2)
	// The new market is in another region, so the count spans rollups.
	for _, id := range market.New().SpotMarkets() {
		if id.Region() != ids[0].Region() {
			l.db.RecordPrice(id, store.PricePoint{At: t0.Add(25 * time.Hour), Price: 0.2})
			break
		}
	}
	check(3)
}
