package client

import (
	"bytes"
	"strconv"
	"time"

	"spotlight/pkg/api"
)

// decodeFast decodes body into out by hand when out is one of the types
// the read methods return (see the package doc) and body is in the form
// the service writes: json.Marshal's compact output, every member in
// struct order under its exact tag, with no string escape and no null.
// On anything else it reports false and leaves out untouched, and
// decodeBody falls back to json.Unmarshal. So whatever it accepts decodes
// to exactly the value json.Unmarshal gives. out must hold a zero value,
// as every read method's does.
func decodeFast(body []byte, out any) bool {
	d := &decoder{b: body}
	switch p := out.(type) {
	case *[]api.PricePoint:
		return commit(d, p, list(d, (*decoder).pricePoint))
	case *[]api.RegionSummary:
		return commit(d, p, list(d, (*decoder).regionSummary))
	case *[]api.StableMarket:
		return commit(d, p, list(d, (*decoder).stableMarket))
	case *[]api.VolatileMarket:
		return commit(d, p, list(d, (*decoder).volatileMarket))
	case *[]api.Fallback:
		return commit(d, p, list(d, (*decoder).fallback))
	case *api.Unavailability:
		var v api.Unavailability
		d.unavailability(&v)
		return commit(d, p, v)
	case *api.BatchResponse:
		var v api.BatchResponse
		d.batch(&v)
		return commit(d, p, v)
	case *api.AdviseResponse:
		var v api.AdviseResponse
		d.adviseResponse(&v)
		return commit(d, p, v)
	}
	return false
}

// commit assigns v to out when the whole body decoded into it.
func commit[T any](d *decoder, out *T, v T) bool {
	if !d.end() {
		return false
	}
	*out = v
	return true
}

// decoder is a cursor over one response body. The first byte outside the
// accepted form sets bad and moves the cursor to the end, so every later
// read fails too and the caller checks once, in end.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

func (d *decoder) fail() {
	d.bad = true
	d.i = len(d.b)
}

// eat consumes c when it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) expect(c byte) {
	if !d.eat(c) {
		d.fail()
	}
}

// end reports whether the value decoded and only whitespace follows it
// (the service ends every body with a newline).
func (d *decoder) end() bool {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
	return !d.bad && d.i == len(d.b)
}

// quoted returns the contents of the string at the cursor. An escape, a
// control byte or a byte outside ASCII fails: unescaping and UTF-8
// repair are json.Unmarshal's.
func (d *decoder) quoted() []byte {
	if !d.eat('"') {
		d.fail()
		return nil
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c == '\\' || c < 0x20 || c >= 0x80:
			d.fail()
			return nil
		}
	}
	d.fail()
	return nil
}

// str copies the string at the cursor out of the body: the conditional
// cache keeps bodies and replays them.
func (d *decoder) str() string { return string(d.quoted()) }

func (d *decoder) time(t *time.Time) {
	start := d.i
	d.quoted()
	if d.bad || t.UnmarshalJSON(d.b[start:d.i]) != nil {
		d.fail()
	}
}

func (d *decoder) bool() bool {
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += len("false")
		return false
	}
	d.fail()
	return false
}

// number returns the number at the cursor, held to JSON's grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? before strconv sees it:
// strconv also takes a leading +, inf, 0x and _.
func (d *decoder) number() []byte {
	start := d.i
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 {
		d.fail()
	}
	if d.eat('.') {
		if d.digits() == 0 {
			d.fail()
		}
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			d.fail()
		}
	}
	return d.b[start:d.i]
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// float, integer, int and nanos parse as json.Unmarshal does, failing
// where it reports an error: an integer field takes only an integer in
// range (ParseInt refuses a fraction or an exponent).
func (d *decoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail()
	}
	return f
}

func (d *decoder) integer(bits int) int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	if err != nil {
		d.fail()
	}
	return n
}

func (d *decoder) int() int { return int(d.integer(strconv.IntSize)) }

func (d *decoder) nanos() time.Duration { return time.Duration(d.integer(64)) }

// has consumes the member key name at the cursor, with the comma before
// it unless it opens its object, and reports whether it was there: the
// members of a DTO are read in struct order, so an unknown, misspelt,
// repeated or reordered key is never consumed and the object fails.
func (d *decoder) has(name string) bool {
	j := d.i
	if j > 0 && d.b[j-1] != '{' { // no value ends in '{'
		if j == len(d.b) || d.b[j] != ',' {
			return false
		}
		j++
	}
	rest := d.b[j:]
	n := len(name)
	if len(rest) < n+3 || rest[0] != '"' || string(rest[1:n+1]) != name || rest[n+1] != '"' || rest[n+2] != ':' {
		return false
	}
	d.i = j + n + 3
	return true
}

// key is has for a member json.Marshal always writes (no omitempty): its
// absence fails.
func (d *decoder) key(name string) *decoder {
	if !d.has(name) {
		d.fail()
	}
	return d
}

// list decodes one array of elem's objects into a new slice, non-nil
// even when empty, as json.Unmarshal's is. Its capacity is the number of
// objects opened before the next ']': exact for flat objects.
func list[T any](d *decoder, elem func(*decoder, *T)) []T {
	d.expect('[')
	rest := d.b[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]T, 0, bytes.Count(rest, []byte("{")))
	if d.eat(']') {
		return out
	}
	for !d.bad {
		out = append(out, *new(T))
		elem(d, &out[len(out)-1])
		if d.eat(']') {
			return out
		}
		d.expect(',')
	}
	return nil
}

// One reader per DTO, its members in struct order.

func (d *decoder) pricePoint(p *api.PricePoint) {
	d.expect('{')
	d.key("at").time(&p.At)
	p.Price = d.key("price").float()
	d.expect('}')
}

func (d *decoder) regionSummary(p *api.RegionSummary) {
	d.expect('{')
	p.Region = d.key("region").str()
	p.ODOutages = d.key("odOutages").int()
	p.SpotOutages = d.key("spotOutages").int()
	p.MeanODOutage = d.key("meanODOutageNanos").nanos()
	p.RejectedODProbes = d.key("rejectedODProbes").int()
	p.TotalODProbes = d.key("totalODProbes").int()
	p.RejectedSpotPcnt = d.key("rejectedSpotPcnt").float()
	p.TotalSpotProbes = d.key("totalSpotProbes").int()
	p.SpikesAboveOD = d.key("spikesAboveOD").int()
	p.ObservedSpikesAll = d.key("observedSpikesAll").int()
	d.expect('}')
}

func (d *decoder) stableMarket(p *api.StableMarket) {
	d.expect('{')
	p.Market = d.key("market").str()
	p.Crossings = d.key("crossings").int()
	p.MTTR = d.key("mttrNanos").nanos()
	p.ODUnavailability = d.key("odUnavailability").float()
	d.expect('}')
}

func (d *decoder) volatileMarket(p *api.VolatileMarket) {
	d.expect('{')
	p.Market = d.key("market").str()
	p.Crossings = d.key("crossings").int()
	p.MaxRatio = d.key("maxRatio").float()
	p.MeanHeld = d.key("meanHeldNanos").nanos()
	p.Watches = d.key("watches").int()
	d.expect('}')
}

func (d *decoder) fallback(p *api.Fallback) {
	d.expect('{')
	p.Market = d.key("market").str()
	p.ODUnavailability = d.key("odUnavailability").float()
	p.Crossings = d.key("crossings").int()
	d.expect('}')
}

func (d *decoder) unavailability(p *api.Unavailability) {
	d.expect('{')
	p.Market = d.key("market").str()
	p.Contract = d.key("kind").str()
	p.Unavailability = d.key("unavailability").float()
	p.Availability = d.key("availability").float()
	d.expect('}')
}

func (d *decoder) batch(p *api.BatchResponse) {
	d.expect('{')
	d.key("now").time(&p.Now)
	p.Results = list(d.key("results"), (*decoder).result)
	d.expect('}')
}

// result decodes a batch result whose arms, all omitempty, are of the
// kinds above: an error or any other arm fails, leaving the batch to
// json.Unmarshal.
func (d *decoder) result(p *api.Result) {
	d.expect('{')
	p.Kind = api.Kind(d.key("kind").str())
	if d.has("unavailability") {
		p.Unavailability = new(api.Unavailability)
		d.unavailability(p.Unavailability)
	}
	if d.has("stable") {
		p.Stable = list(d, (*decoder).stableMarket)
	}
	if d.has("volatile") {
		p.Volatile = list(d, (*decoder).volatileMarket)
	}
	if d.has("fallbacks") {
		p.Fallbacks = list(d, (*decoder).fallback)
	}
	if d.has("prices") {
		p.Prices = list(d, (*decoder).pricePoint)
	}
	if d.has("summary") {
		p.Summary = list(d, (*decoder).regionSummary)
	}
	if d.has("advise") {
		p.Advise = new(api.AdviseResult)
		d.expect('{')
		d.adviseResult(p.Advise)
		d.expect('}')
	}
	d.expect('}')
}

func (d *decoder) adviseResponse(p *api.AdviseResponse) {
	d.expect('{')
	d.key("now").time(&p.Now)
	d.adviseResult(&p.AdviseResult)
	d.expect('}')
}

// adviseResult reads an AdviseResult's members, inline in an
// AdviseResponse or inside a batch arm's braces.
func (d *decoder) adviseResult(p *api.AdviseResult) {
	d.key("from").time(&p.From)
	d.key("to").time(&p.To)
	p.Candidates = list(d.key("candidates"), (*decoder).adviseCandidate)
}

func (d *decoder) adviseCandidate(p *api.AdviseCandidate) {
	d.expect('{')
	p.Rank = d.key("rank").int()
	p.Market = d.key("market").str()
	p.VCPU = d.key("vcpu").int()
	p.MemoryGB = d.key("memoryGB").float()
	p.OnDemandPrice = d.key("onDemandPrice").float()
	p.SpotPriceMin = d.key("spotPriceMin").float()
	p.SpotPriceMean = d.key("spotPriceMean").float()
	p.SpotPriceMax = d.key("spotPriceMax").float()
	p.PriceSamples = d.key("priceSamples").int()
	p.SavingsPcnt = d.key("savingsPcnt").float()
	p.Crossings = d.key("crossings").int()
	p.InterruptionRate = d.key("interruptionRate").float()
	p.SpotUnavailability = d.key("spotUnavailability").float()
	p.Revocations = d.key("revocations").int()
	p.LiveOutage = d.key("liveOutage").bool()
	p.Score = d.key("score").float()
	d.expect('}')
}
