package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestStampsMaterializeIdenticallyLiveAndRecovered holds the stamp
// contract: every instant comes back in UTC, saturated to the int64
// nanosecond range (the zero time.Time included), identically from the
// live store, its change feed, the store reopened from its data dir and
// the one its dump loads into — == on the records, location and all. An
// outage still open keeps a zero End.
func TestStampsMaterializeIdenticallyLiveAndRecovered(t *testing.T) {
	lowest, highest := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	plus2 := time.Date(2015, 9, 1, 14, 0, 0, 7, time.FixedZone("+02:00", 2*3600))
	// Non-decreasing once saturated: every series is in time order.
	stamps := []time.Time{{}, lowest, lowest.Add(-time.Hour), plus2, highest, highest.Add(time.Hour)}
	floor, ceiling := time.Unix(0, minStamp).UTC(), time.Unix(0, maxStamp).UTC()
	want := []time.Time{floor, floor, floor, plus2.UTC(), ceiling, ceiling}

	dir := t.TempDir()
	live, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub := live.Feed().Subscribe(SubscribeOptions{})
	defer sub.Close()
	id, other := persistMarket(0), persistMarket(1)
	for i, at := range stamps {
		// Rejected, fulfilled, rejected, ...: outages open and close on
		// saturated stamps, and the last one stays open.
		live.AppendProbe(ProbeRecord{At: at, Market: id, Kind: ProbeOnDemand, Rejected: i%2 == 0 || i == len(stamps)-1})
		live.AppendSpike(SpikeEvent{At: at, Market: id, Price: 1, Ratio: 2})
		live.AppendBidSpread(BidSpreadRecord{At: at, Market: id, Published: 1, Intrinsic: 0.5, Attempts: 2})
		live.AppendRevocation(RevocationRecord{At: at, Market: other, Bid: 1, Held: time.Hour})
		live.RecordPrice(id, PricePoint{At: at, Price: float64(i)})
		if i == len(stamps)/2 {
			if err := live.Persister().Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.Persister().Flush(); err != nil {
		t.Fatal(err)
	}
	live.Persister().Abandon()

	// The log frames the saturated instant too, as a snapshot section
	// would: one record, one encoding.
	logs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no log files after the snapshot (%v)", err)
	}
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := len(walMagic); off < len(data); {
			typ, body, n, err := decodeWALFrame(data[off:])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			off += n
			if typ == walRunHeader {
				continue
			}
			r := walReader{data: body} // every record frame opens with its instant
			if at := r.instant(); at.Before(floor) || at.After(ceiling) {
				t.Fatalf("%s frames %v, outside the stamp range", path, at)
			}
		}
	}

	for i, p := range live.Prices(id) {
		if p.At != want[i] || p.At.Location() != time.UTC {
			t.Fatalf("price %d stamped %v, want %v in UTC", i, p.At, want[i])
		}
	}
	outages := live.Outages()
	if len(outages) != 3 || !outages[2].End.IsZero() || outages[0].End != floor {
		t.Fatalf("outages %+v: want three, the first closed at %v, the last open", outages, floor)
	}
	evs, _ := sub.Next(nil)
	for _, ev := range evs {
		if ev.At.Location() != time.UTC || (ev.Kind == EventPrice && ev.Price.At != ev.At) {
			t.Fatalf("feed event %+v is not stamped in UTC", ev)
		}
		if ev.Kind == EventPrice && ev.At != want[int(ev.Price.Price)] {
			t.Fatalf("price event at %v, the store holds %v", ev.At, want[int(ev.Price.Price)])
		}
	}

	reopened, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Persister().Close()
	loaded, err := loadDump([]byte(dumpOf(t, live)))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		what string
		db   *Store
	}{{"reopened", reopened}, {"loaded", loaded}} {
		sameRecords(t, st.what+" probes", st.db.Probes(), live.Probes())
		sameRecords(t, st.what+" spikes", st.db.Spikes(), live.Spikes())
		sameRecords(t, st.what+" bid spreads", allBidSpreads(st.db), allBidSpreads(live))
		sameRecords(t, st.what+" revocations", allRevocations(st.db), allRevocations(live))
		sameRecords(t, st.what+" outages", st.db.Outages(), live.Outages())
		sameRecords(t, st.what+" prices", st.db.Prices(id), live.Prices(id))
	}
}

// sameRecords compares two record streams with ==.
func sameRecords[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
