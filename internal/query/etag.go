package query

import (
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"spotlight/internal/market"
	"spotlight/pkg/api"
)

// HTTP conditional requests: every successful query response carries an
// ETag derived from the query spec and the store generation of the scope
// the answer reads. A client that replays the query with If-None-Match
// gets 304 Not Modified — no recomputation, no body — until an append
// lands inside the scope (or, for clock-dependent queries, the service
// clock moves). The generation lookups come from the store's rollup
// counters, so validating a request is O(1) regardless of how many
// markets the query would touch.

// queryScopeGen returns the append generation of the shards one query's
// answer can depend on, at the narrowest rollup granularity that is still
// sound. Malformed market IDs yield generation 0 — deterministic, and the
// execution path rejects the spec with the same error every time.
func (a *API) queryScopeGen(q api.Query) uint64 {
	db := a.engine.db
	switch q.Kind {
	case api.KindUnavailability, api.KindPrices, api.KindOutages, api.KindReservedValue:
		id, err := market.ParseSpotID(q.Market)
		if err != nil {
			return 0
		}
		return db.Generation(id)
	case api.KindStable, api.KindVolatile:
		return db.GenerationOfScope(market.Region(q.Region), market.Product(q.Product))
	case api.KindFallback:
		// Fallback candidates come from the market's own region.
		id, err := market.ParseSpotID(q.Market)
		if err != nil {
			return 0
		}
		return db.GenerationOfScope(id.Region(), "")
	case api.KindPredict, api.KindSummary:
		// A thin sample backs the predictor off to region and global
		// history, so its scope is the whole store, as the summary's is.
		return db.GlobalGeneration()
	case api.KindAdvise:
		// The advisor reads every priced market of the constraint's region
		// set: the sum of its regions' generations (append counts, so the
		// sum moves on any append in scope), or the global one unrestricted.
		var cons api.AdviseConstraints
		if q.Advise != nil {
			cons = *q.Advise
		}
		c, err := a.engine.adv.Normalize(cons)
		if err != nil {
			return 0
		}
		if len(c.Regions) == 0 {
			return db.GlobalGeneration()
		}
		var sum uint64
		for _, r := range c.Regions {
			sum += db.GenerationOfScope(r, "")
		}
		return sum
	default:
		// Markets is catalog-only, immutable for the life of the process;
		// an unknown kind fails in exec every time.
		return 0
	}
}

// dependsOnNow reports whether the query's answer changes with the
// service clock even when no append lands: relative windows resolve
// against now, the summary measures open outages to now, and an advise
// spec with no window at all defaults to a relative one.
func dependsOnNow(q api.Query) bool {
	return q.Kind == api.KindSummary || q.Rel != "" ||
		(q.Kind == api.KindAdvise && q.Window.IsZero())
}

// appendKey appends the table key of the query set qs answered on route
// at service clock now, and returns it with the offset where the ETag's
// preimage starts. The key is the route, a newline, then exactly the
// bytes the strong ETag hashes: responseFormat, the ETag salt, every
// spec's parameters and scope generation, plus the clock when any spec
// depends on it. Identical specs against an unchanged scope (and
// unchanged clock, where it matters) produce the identical key and tag.
// A durable store keeps its salt across clean restarts, so a release that
// renders the same records to different bytes bumps responseFormat — to 2
// when price means began adding sealed chunk sums — and retires every tag
// minted before it. ok is false when the bytes could also spell another
// query set (keyWriter), whose answer the table must then not serve.
func (a *API) appendKey(b []byte, route string, qs []api.Query, now time.Time) (key []byte, pre int, ok bool) {
	const responseFormat = 2
	k := keyWriter{b: append(append(b, route...), '\n')}
	pre = len(k.b)
	k.b = append(k.b, "format|"...)
	k = k.num(responseFormat, "|")
	k.b = append(k.b, "epoch|"...)
	k = k.num(a.epoch, "\n")
	clockBound := false
	for _, q := range qs {
		for _, s := range [...]string{string(q.Kind), q.Market, q.Region, q.Product, q.Contract} {
			k = k.str(s, "|")
		}
		k = k.num(int64(q.N), "|")
		k = k.float(q.Ratio, "|")
		k = k.str(q.Horizon, "|")
		k = k.float(q.Utilization, "|")
		k = k.instant(q.From, "|")
		k = k.instant(q.To, "|")
		k = k.str(q.Rel, "|")
		k.b = append(strconv.AppendUint(k.b, a.queryScopeGen(q), 10), '\n')
		if c := q.Advise; c != nil {
			k.b = append(k.b, "advise|"...)
			k = k.list(c.Regions)
			k = k.list(c.Products)
			k = k.str(c.InstanceTypes, "|")
			k = k.num(int64(c.MinVCPU), "|")
			k = k.float(c.MinMemoryGB, "|")
			k = k.float(c.MaxPricePerHour, "|")
			k = k.float(c.MaxInterruptionRate, "|")
			k = k.num(int64(c.N), "\n")
		}
		clockBound = clockBound || dependsOnNow(q)
	}
	if clockBound {
		k.b = append(k.b, "now|"...)
		k = k.instant(now, "")
	}
	return k.b, pre, !k.ambiguous
}

// keyWriter appends a key's fields in fmt's forms (%s, %d, %g), each with
// its separator, and returns itself extended (by value, so the caller's
// buffer stays on its stack). ambiguous records a field that could make
// the bytes spell another query set: a string holding '|' or a newline,
// an advise list entry that is empty or holds a comma, or an instant
// whose UnixNano is not its own (outside the representable range, or the
// one representable instant sharing the zero time's).
type keyWriter struct {
	b         []byte
	ambiguous bool
}

// zeroNanos is what UnixNano returns for the zero time; minInstant and
// maxInstant bound the instants UnixNano represents.
var (
	zeroNanos              = time.Time{}.UnixNano()
	minInstant, maxInstant = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
)

func (k keyWriter) str(s, sep string) keyWriter {
	k.ambiguous = k.ambiguous || strings.ContainsAny(s, "|\n")
	k.b = append(append(k.b, s...), sep...)
	return k
}

func (k keyWriter) num(v int64, sep string) keyWriter {
	k.b = append(strconv.AppendInt(k.b, v, 10), sep...)
	return k
}

func (k keyWriter) float(f float64, sep string) keyWriter {
	k.b = append(strconv.AppendFloat(k.b, f, 'g', -1, 64), sep...)
	return k
}

func (k keyWriter) instant(t time.Time, sep string) keyWriter {
	own := t.IsZero() || (!t.Before(minInstant) && !t.After(maxInstant) && t.UnixNano() != zeroNanos)
	k.ambiguous = k.ambiguous || !own
	return k.num(t.UnixNano(), sep)
}

// list appends the entries joined by commas, as strings.Join does.
func (k keyWriter) list(l []string) keyWriter {
	for i, s := range l {
		if i > 0 {
			k.b = append(k.b, ',')
		}
		k.ambiguous = k.ambiguous || s == "" || strings.ContainsAny(s, ",|\n")
		k.b = append(k.b, s...)
	}
	k.b = append(k.b, '|')
	return k
}

// etagOf is the strong ETag of a preimage: its FNV-64a hash as 16
// lower-case hex digits, quoted.
func etagOf(pre []byte) string {
	f := fnv.New64a()
	_, _ = f.Write(pre) // a hash's Write never fails
	h := f.Sum64()
	var t [18]byte
	t[0], t[17] = '"', '"'
	for i := 16; i > 0; i, h = i-1, h>>4 {
		t[i] = "0123456789abcdef"[h&0xf]
	}
	return string(t[:])
}
