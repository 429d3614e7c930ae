package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/query"
	"spotlight/pkg/api"
)

// served is one answer the service wrote, with a fresh value of the type
// its read method decodes it into.
type served struct {
	name  string
	body  []byte
	fresh func() any
}

func target[T any]() func() any { return func() any { return new(T) } }

// recorder keeps a copy of every response body it carries.
type recorder struct {
	rt     http.RoundTripper
	bodies [][]byte
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.bodies = append(r.bodies, b)
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp, nil
}

var (
	servedOnce    sync.Once
	servedAnswers []served
	servedErr     error
)

// servedBodies asks a service over a seeded one-day study every read the
// benchmark's read workloads send, through the typed methods, and returns
// the bodies it answered with.
func servedBodies(t testing.TB) []served {
	t.Helper()
	servedOnce.Do(func() { servedAnswers, servedErr = collectServed() })
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return servedAnswers
}

func collectServed() ([]served, error) {
	st, err := experiment.Run(experiment.Config{Seed: 42, Days: 1})
	if err != nil {
		return nil, err
	}
	_, end := st.Window()
	a := query.NewAPI(query.NewEngine(st.DB, st.Cat), func() time.Time { return end })
	defer a.Shutdown()
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	rec := &recorder{rt: srv.Client().Transport}
	c, err := New(srv.URL, &http.Client{Transport: rec})
	if err != nil {
		return nil, err
	}
	ctx, day := context.Background(), api.Last(24*time.Hour)
	var id string // the last market of the stable ranking, asked first
	var out []served
	for _, r := range []struct {
		name  string
		fresh func() any
		call  func() error
	}{
		{"stable", target[[]api.StableMarket](), func() error {
			rows, err := c.Stable(ctx, "us-east-1", "", 10, day)
			if err == nil && len(rows) > 0 {
				id = rows[len(rows)-1].Market
			}
			return err
		}},
		{"prices", target[[]api.PricePoint](), func() error { _, err := c.Prices(ctx, id, day); return err }},
		{"summary", target[[]api.RegionSummary](), func() error { _, err := c.Summary(ctx); return err }},
		{"volatile", target[[]api.VolatileMarket](), func() error { _, err := c.Volatile(ctx, "us-east-1", "", 10, day); return err }},
		{"fallback", target[[]api.Fallback](), func() error { _, err := c.Fallback(ctx, id, 5, day); return err }},
		{"unavailability", target[api.Unavailability](), func() error { _, err := c.Unavailability(ctx, id, "spot", day); return err }},
		{"batch", target[api.BatchResponse](), func() error {
			_, err := c.Batch(ctx,
				api.Query{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: day},
				api.Query{Kind: api.KindSummary},
				api.Query{Kind: api.KindUnavailability, Market: id, Contract: "spot", Window: day})
			return err
		}},
		{"advise", target[api.AdviseResponse](), func() error {
			_, err := c.Advise(ctx, api.AdviseRequest{AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1"}, N: 10}, Window: day})
			return err
		}},
	} {
		if err := r.call(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out = append(out, served{r.name, rec.bodies[len(rec.bodies)-1], r.fresh})
	}
	return out, nil
}

// TestDecodeFastTakesServedAnswers holds the fast path to what the
// service really writes: each answer of the read workloads' kinds must
// decode without declining, to json.Unmarshal's value, within its
// allocation ceiling. A field the service gains and the decoder does not
// know fails here, rather than sending every read to encoding/json.
func TestDecodeFastTakesServedAnswers(t *testing.T) {
	// Measured on the seed-42 one-day study: the decoder, the slice or
	// slices, every string (each row's market, each kind and region), and
	// the batch's unavailability arm.
	ceilings := map[string]float64{
		"stable": 12, "prices": 2, "summary": 11, "volatile": 12, "fallback": 7,
		"unavailability": 3, "batch": 24, "advise": 12,
	}
	for _, s := range servedBodies(t) {
		got, want := s.fresh(), s.fresh()
		if !decodeFast(s.body, got) {
			t.Errorf("%s: the fast path declined the served body %.200s", s.name, s.body)
			continue
		}
		if err := json.Unmarshal(s.body, want); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, json.Unmarshal %+v", s.name, got, want)
		}
		if reflect.ValueOf(want).Elem().IsZero() {
			t.Errorf("%s: the served answer is empty: the check would test nothing", s.name)
		}
		v := reflect.ValueOf(got).Elem()
		allocs := testing.AllocsPerRun(20, func() {
			v.SetZero()
			decodeFast(s.body, got)
		})
		if allocs > ceilings[s.name] {
			t.Errorf("%s: %.0f allocations per decode of %d bytes, ceiling %.0f", s.name, allocs, len(s.body), ceilings[s.name])
		} else {
			t.Logf("%s: %.0f allocations per decode of %d bytes (ceiling %.0f)", s.name, allocs, len(s.body), ceilings[s.name])
		}
	}
}

// TestDecodeFastDeclines changes one thing at a time in a body the fast
// path takes: each change outside its form is declined, with the value
// left as it was, whatever json.Unmarshal makes of it; each inside it
// decodes to json.Unmarshal's value.
func TestDecodeFastDeclines(t *testing.T) {
	const body = `[{"market":"m","crossings":1,"mttrNanos":2,"odUnavailability":0.5}]` + "\n"
	stable := target[[]api.StableMarket]()
	for _, c := range []struct {
		name, old, new string
		takes          bool
	}{
		{name: "as served", takes: true},
		{"exponent in a float", "0.5", "5E-1", true},
		{"negative zero", "0.5", "-0", true},
		{"least int", ":1,", ":-9223372036854775808,", true},
		{"escape", `"m"`, `"m\u0062"`, false},
		{"escaped quote", `"m"`, `"m\""`, false},
		{"non-ASCII", `"m"`, "\"m\xc3\xa9\"", false},
		{"control byte", `"m"`, "\"m\t\"", false},
		{"key case", `"market"`, `"Market"`, false},
		{"unknown key", `"mttrNanos":2`, `"mttrNanos":2,"rank":1`, false},
		{"missing key", `"mttrNanos":2,`, ``, false},
		{"reordered keys", `"crossings":1,"mttrNanos":2`, `"mttrNanos":2,"crossings":1`, false},
		{"repeated key", `"crossings":1`, `"crossings":1,"crossings":1`, false},
		{"null body", body, "null", false},
		{"null row", body, "[null]", false},
		{"null field", `"m"`, `null`, false},
		{"exponent in an int", ":1,", ":1e3,", false},
		{"fraction in an int", ":1,", ":1.5,", false},
		{"int out of range", ":1,", ":9223372036854775808,", false},
		{"plus sign", "0.5", "+1", false},
		{"hex", "0.5", "0x10", false},
		{"Infinity", "0.5", "Infinity", false},
		{"float out of range", "0.5", "1e400", false},
		{"leading zero", "0.5", "00.5", false},
		{"bare minus", "0.5", "-", false},
		{"trailing bytes", "]\n", "]x", false},
		{"second value", "]\n", "] []", false},
		{"truncated", "}]\n", "", false},
		{"whitespace inside", "[{", "[ {", false},
		{"trailing comma", "}]", "},]", false},
	} {
		if !strings.Contains(body, c.old) {
			t.Fatalf("%s: %q is not in the base body", c.name, c.old)
		}
		b := []byte(strings.Replace(body, c.old, c.new, 1))
		got := stable()
		if decodeFast(b, got) != c.takes {
			t.Errorf("%s: fast path took %s: %v, want %v", c.name, b, !c.takes, c.takes)
			continue
		}
		if !c.takes {
			if !reflect.ValueOf(got).Elem().IsZero() {
				t.Errorf("%s: a declined body wrote into out", c.name)
			}
			continue
		}
		want := stable()
		if err := json.Unmarshal(b, want); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, json.Unmarshal %+v (%v)", c.name, got, want, err)
		}
	}
	for name, c := range map[string]struct {
		fresh func() any
		body  string
	}{
		"bad time":       {target[[]api.PricePoint](), `[{"at":"2015-09-01","price":1}]`},
		"number as time": {target[[]api.PricePoint](), `[{"at":1,"price":1}]`},
		"error arm":      {target[api.BatchResponse](), `{"now":"2015-09-01T00:00:00Z","results":[{"kind":"stable","error":{"code":"x","message":"y"}}]}`},
		"outages arm":    {target[api.BatchResponse](), `{"now":"2015-09-01T00:00:00Z","results":[{"kind":"outages","outages":[]}]}`},
		"other type":     {target[[]api.Outage](), `[]`},
	} {
		if decodeFast([]byte(c.body), c.fresh()) {
			t.Errorf("%s: accepted %s", name, c.body)
		}
	}
}

// FuzzDecodeBody is the fast path's differential test: on any body and
// for every type it decodes, an accepted body must be one json.Unmarshal
// also decodes, to a reflect.DeepEqual value, and a declined one must
// leave the value untouched.
func FuzzDecodeBody(f *testing.F) {
	for _, s := range servedBodies(f) {
		f.Add(s.body)
		f.Add(s.body[:len(s.body)/2])
		f.Add(bytes.Replace(s.body, []byte(`"market":"`), []byte(`"market":"\u0041`), 1))
		f.Add(bytes.Replace(s.body, []byte(`"market"`), []byte(`"Market"`), 1))
		f.Add(append(bytes.TrimSpace(s.body), ` {}`...))
	}
	for _, body := range []string{
		`[{"at":"2015-09-01T00:00:00Z","price":1e3}]`,
		`[{"at":"2015-09-01T00:00:00Z","price":1.5,"price":2}]`,
		`[{"at":"2015-09-01T00:00:00.000000001+05:30","price":-0}]`,
		`[{"market":"m","crossings":1e3}]`,
		`[{"market":"m","crossings":+1}]`,
		`[{"market":"m","crossings":0x10}]`,
		`[{"market":"m","odUnavailability":Infinity}]`,
		`[{"market":null,"crossings":1}]`,
		`{"market":"m","kind":"spot","unavailability":0.25,"availability":0.75}`,
		`{"now":"2015-09-01T00:00:00Z","results":[{"kind":"summary","summary":[]}]}`,
		`{"now":"2015-09-01T00:00:00Z","from":"2015-08-31T00:00:00Z","to":"2015-09-01T00:00:00Z","candidates":[{"rank":1,"liveOutage":true}]}`,
	} {
		f.Add([]byte(body))
	}
	targets := []func() any{
		target[[]api.PricePoint](), target[[]api.RegionSummary](), target[[]api.StableMarket](),
		target[[]api.VolatileMarket](), target[[]api.Fallback](), target[api.Unavailability](),
		target[api.BatchResponse](), target[api.AdviseResponse](),
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, fresh := range targets {
			got := fresh()
			if !decodeFast(body, got) {
				if !reflect.ValueOf(got).Elem().IsZero() {
					t.Fatalf("%T: a declined body wrote into out: %q", got, body)
				}
				continue
			}
			want := fresh()
			if err := json.Unmarshal(body, want); err != nil {
				t.Fatalf("%T: accepted a body json.Unmarshal rejects (%v): %q", got, err, body)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: decoded %+v, json.Unmarshal %+v, from %q", got, got, want, body)
			}
		}
	})
}
