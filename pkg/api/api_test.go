package api

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

var now = time.Date(2015, 9, 2, 0, 0, 0, 0, time.UTC)

func TestWindowResolveRelative(t *testing.T) {
	from, to, err := Last(24 * time.Hour).Resolve(now)
	if err != nil {
		t.Fatal(err)
	}
	if !to.Equal(now) || !from.Equal(now.Add(-24*time.Hour)) {
		t.Errorf("resolved [%v, %v]", from, to)
	}
	// The relative form wins when both are present.
	w := Window{From: now.Add(-time.Hour), To: now, Rel: "2h"}
	from, _, err = w.Resolve(now)
	if err != nil || !from.Equal(now.Add(-2*time.Hour)) {
		t.Errorf("mixed window resolved from=%v err=%v", from, err)
	}
}

func TestWindowResolveAbsolute(t *testing.T) {
	from, to, err := Between(now.Add(-time.Hour), now).Resolve(now)
	if err != nil {
		t.Fatal(err)
	}
	if !from.Equal(now.Add(-time.Hour)) || !to.Equal(now) {
		t.Errorf("resolved [%v, %v]", from, to)
	}
	// The widest windows the store represents still resolve: the first
	// instant plus the longest Duration, and the longest trailing window.
	first := time.Unix(0, math.MinInt64)
	for _, w := range []Window{Between(first, first.Add(math.MaxInt64)), Last(math.MaxInt64)} {
		if _, _, err := w.Resolve(now); err != nil {
			t.Errorf("window %+v: %v", w, err)
		}
	}
}

// TestWindowResolveReturnsUTC: the resolved ends are UTC whatever zone
// the window or the clock names its instants in, so an answer that echoes
// them renders the same bytes for the same instants.
func TestWindowResolveReturnsUTC(t *testing.T) {
	east := time.FixedZone("+02:00", 2*60*60)
	for _, c := range []struct {
		w   Window
		now time.Time
	}{
		{Between(now.Add(-time.Hour).In(east), now.In(east)), now},
		{Last(time.Hour), now.In(east)},
	} {
		from, to, err := c.w.Resolve(c.now)
		if err != nil {
			t.Fatal(err)
		}
		if from.Location() != time.UTC || to.Location() != time.UTC || !from.Equal(now.Add(-time.Hour)) || !to.Equal(now) {
			t.Errorf("window %+v at %v resolved to [%v, %v], want UTC [%v, %v]", c.w, c.now, from, to, now.Add(-time.Hour), now)
		}
	}
}

func TestWindowResolveErrors(t *testing.T) {
	bad := []Window{
		{},                                   // missing entirely
		{From: now},                          // half absolute
		{To: now},                            // other half
		{From: now, To: now},                 // empty
		{From: now, To: now.Add(-time.Hour)}, // inverted
		{Rel: "yesterday"},                   // unparseable
		{Rel: "-3h"},                         // non-positive
		{Rel: "0s"},                          // zero
		// Ends the store cannot represent, and a span no Duration holds.
		{From: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), To: now},
		{From: now, To: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)},
		{From: time.Date(1723, 5, 23, 0, 0, 0, 0, time.UTC), To: time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC)},
	}
	for _, w := range bad {
		if _, _, err := w.Resolve(now); err == nil || err.Code != CodeBadWindow {
			t.Errorf("window %+v resolved without CodeBadWindow (err=%v)", w, err)
		}
	}
}

func TestWindowJSONShape(t *testing.T) {
	// The window marshals inline inside a query: from/to/window keys.
	b, err := json.Marshal(Query{Kind: KindStable, Window: Window{Rel: "24h"}, Region: "us-east-1"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, `"window":"24h"`) || strings.Contains(s, `"Rel"`) {
		t.Errorf("query JSON = %s", s)
	}
	var q Query
	if err := json.Unmarshal([]byte(`{"kind":"stable","window":"6h","from":"2015-09-01T00:00:00Z"}`), &q); err != nil {
		t.Fatal(err)
	}
	if q.Rel != "6h" || q.From.IsZero() {
		t.Errorf("decoded query = %+v", q)
	}
}

func TestErrorEnvelope(t *testing.T) {
	e := Errorf(CodeBadParam, "n must be positive, got %d", -1).WithDetail("param", "n")
	if e.Code != CodeBadParam || e.Details["param"] != "n" {
		t.Errorf("envelope = %+v", e)
	}
	if msg := e.Error(); !strings.Contains(msg, CodeBadParam) || !strings.Contains(msg, "param") {
		t.Errorf("Error() = %q", msg)
	}
	plain := Errorf(CodeBadWindow, "missing")
	if msg := plain.Error(); msg != "bad_window: missing" {
		t.Errorf("Error() = %q", msg)
	}
}

// TestETagMatches covers the If-None-Match list syntax.
func TestETagMatches(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{``, `"abc"`, false},
		{`"abc"`, `"abc"`, true},
		{`"xyz"`, `"abc"`, false},
		{`"xyz", "abc"`, `"abc"`, true},
		{`W/"abc"`, `"abc"`, true},
		{`*`, `"abc"`, true},
	}
	for _, tc := range cases {
		if got := ETagMatches(tc.header, tc.etag); got != tc.want {
			t.Errorf("ETagMatches(%q, %q) = %v, want %v", tc.header, tc.etag, got, tc.want)
		}
	}
}
