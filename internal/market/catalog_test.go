package market

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// allZones lists every region's zones.
func allZones(c *Catalog) (zones []Zone) {
	for _, r := range c.Regions() {
		zones = append(zones, c.ZonesIn(r)...)
	}
	return zones
}

func TestCatalogCardinality(t *testing.T) {
	c := New()
	if got := len(c.Regions()); got != 9 {
		t.Errorf("regions = %d, want 9", got)
	}
	if got := len(allZones(c)); got != 26 {
		t.Errorf("zones = %d, want 26 (paper: 26 availability zones)", got)
	}
	if got := len(c.Types()); got != 53 {
		t.Errorf("types = %d, want 53 (paper: 53 instance types)", got)
	}
	// 26 zones x 53 types x 3 products = 4134 spot markets, the paper's
	// "~4500 distinct server types".
	if got := len(c.SpotMarkets()); got != 26*53*3 {
		t.Errorf("spot markets = %d, want %d", got, 26*53*3)
	}
	// 9 regions x 53 types x 3 products = 1431 on-demand markets, the
	// paper's "more than 1000 on-demand markets".
	if got := len(c.Regions()) * len(c.Types()) * len(Products); got != 9*53*3 {
		t.Errorf("on-demand markets = %d, want %d", got, 9*53*3)
	}
	if got := len(c.Pools()); got != 26*len(c.Families()) {
		t.Errorf("pools = %d, want %d", got, 26*len(c.Families()))
	}
}

func TestZonesPerRegion(t *testing.T) {
	c := New()
	want := map[Region]int{
		"us-east-1":      5,
		"us-west-1":      2,
		"us-west-2":      3,
		"eu-west-1":      3,
		"eu-central-1":   2,
		"ap-northeast-1": 3,
		"ap-southeast-1": 2,
		"ap-southeast-2": 3,
		"sa-east-1":      3,
	}
	for r, n := range want {
		if got := len(c.ZonesIn(r)); got != n {
			t.Errorf("ZonesIn(%s) = %d, want %d", r, got, n)
		}
	}
}

func TestFamilySizeDoubling(t *testing.T) {
	// Paper §3.2.1: sizes within a family differ by a factor of two.
	c := New()
	for _, f := range []Family{"c3", "c4", "m3", "r3", "i2", "d2"} {
		types := c.FamilyTypes(f)
		for i := 1; i < len(types); i++ {
			prev, err := c.Units(types[i-1])
			if err != nil {
				t.Fatal(err)
			}
			cur, err := c.Units(types[i])
			if err != nil {
				t.Fatal(err)
			}
			if cur != prev*2 {
				t.Errorf("%s: units(%s)=%d is not 2x units(%s)=%d",
					f, types[i], cur, types[i-1], prev)
			}
		}
	}
}

func TestOnDemandPrice(t *testing.T) {
	c := New()
	got, err := c.OnDemandPrice("us-east-1", "c3.2xlarge", ProductLinux)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.420) > 1e-9 {
		t.Errorf("OnDemandPrice(us-east-1, c3.2xlarge, Linux) = %v, want 0.420", got)
	}
	win, err := c.OnDemandPrice("us-east-1", "c3.2xlarge", ProductWindows)
	if err != nil {
		t.Fatal(err)
	}
	if win <= got {
		t.Errorf("Windows price %v should exceed Linux price %v", win, got)
	}
	sa, err := c.OnDemandPrice("sa-east-1", "c3.2xlarge", ProductLinux)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= got {
		t.Errorf("sa-east-1 price %v should exceed us-east-1 price %v", sa, got)
	}
}

func TestOnDemandPriceErrors(t *testing.T) {
	c := New()
	if _, err := c.OnDemandPrice("us-east-1", "z9.mega", ProductLinux); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := c.OnDemandPrice("mars-north-1", "c3.2xlarge", ProductLinux); err == nil {
		t.Error("unknown region accepted")
	}
	if _, err := c.OnDemandPrice("us-east-1", "c3.2xlarge", Product("BeOS")); err == nil {
		t.Error("unknown product accepted")
	}
	if _, err := c.Units("z9.mega"); err == nil {
		t.Error("Units for unknown type accepted")
	}
}

func TestPriceMonotoneInSize(t *testing.T) {
	// Within a family, bigger servers cost more on-demand.
	c := New()
	for _, f := range c.Families() {
		types := c.FamilyTypes(f)
		for i := 1; i < len(types); i++ {
			p0, _ := c.OnDemandPrice("us-east-1", types[i-1], ProductLinux)
			p1, _ := c.OnDemandPrice("us-east-1", types[i], ProductLinux)
			if p1 <= p0 {
				t.Errorf("%s: price(%s)=%v <= price(%s)=%v", f, types[i], p1, types[i-1], p0)
			}
		}
	}
}

func TestSpotIDJSONRoundTrip(t *testing.T) {
	id := SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: ProductLinux}
	data, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"us-east-1d:c3.2xlarge:Linux/UNIX"` {
		t.Errorf("marshaled = %s, want the canonical string form", data)
	}
	var back SpotID
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Errorf("round trip = %+v, want %+v", back, id)
	}
	// The zero value round-trips through the empty string.
	var zero SpotID
	data, err = json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `""` {
		t.Errorf("zero marshaled = %s, want empty string", data)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != zero {
		t.Errorf("zero round trip = %+v", back)
	}
	// Malformed strings are rejected.
	if err := json.Unmarshal([]byte(`"garbage"`), &back); err == nil {
		t.Error("malformed id accepted")
	}
	if err := json.Unmarshal([]byte(`42`), &back); err == nil {
		t.Error("non-string JSON accepted")
	}
}

func TestSpotIDRoundTrip(t *testing.T) {
	id := SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: ProductLinux}
	got, err := ParseSpotID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Errorf("round trip = %+v, want %+v", got, id)
	}
}

func TestParseSpotIDErrors(t *testing.T) {
	for _, s := range []string{"", "us-east-1d", "us-east-1d:c3.2xlarge", ":c3.2xlarge:Linux/UNIX", "z::p"} {
		if _, err := ParseSpotID(s); err == nil {
			t.Errorf("ParseSpotID(%q) succeeded, want error", s)
		}
	}
}

func TestSpotIDDerivations(t *testing.T) {
	id := SpotID{Zone: "ap-southeast-2b", Type: "g2.8xlarge", Product: ProductWindows}
	if got := id.Region(); got != "ap-southeast-2" {
		t.Errorf("Region = %q", got)
	}
	if got := id.Pool(); got != (PoolID{Zone: "ap-southeast-2b", Family: "g2"}) {
		t.Errorf("Pool = %+v", got)
	}
}

func TestInstanceTypeParsing(t *testing.T) {
	tests := []struct {
		give       InstanceType
		wantFamily Family
	}{
		{"c3.2xlarge", "c3"},
		{"t1.micro", "t1"},
		{"weird", "weird"},
	}
	for _, tt := range tests {
		if got := tt.give.Family(); got != tt.wantFamily {
			t.Errorf("%s Family = %q, want %q", tt.give, got, tt.wantFamily)
		}
	}
}

func TestRelatedSameZone(t *testing.T) {
	c := New()
	id := SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: ProductLinux}
	rel := c.RelatedSameZone(id)
	if len(rel) != 4 { // c3 has 5 sizes; excluding self leaves 4
		t.Fatalf("RelatedSameZone = %d markets, want 4", len(rel))
	}
	for _, r := range rel {
		if r.Zone != id.Zone {
			t.Errorf("related market %v left the zone", r)
		}
		if r.Type.Family() != "c3" {
			t.Errorf("related market %v left the family", r)
		}
		if r.Type == id.Type {
			t.Errorf("related markets must exclude the trigger market")
		}
	}
}

func TestRelatedOtherZones(t *testing.T) {
	c := New()
	id := SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: ProductLinux}
	rel := c.RelatedOtherZones(id)
	if len(rel) != 4*5 { // 4 other zones x 5 c3 sizes
		t.Fatalf("RelatedOtherZones = %d markets, want 20", len(rel))
	}
	for _, r := range rel {
		if r.Zone == id.Zone {
			t.Errorf("related market %v stayed in the trigger zone", r)
		}
		if r.Region() != "us-east-1" {
			t.Errorf("related market %v left the region", r)
		}
	}
}

func TestRelatedUnion(t *testing.T) {
	c := New()
	id := SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: ProductLinux}
	if got, want := len(c.Related(id)), 24; got != want {
		t.Errorf("Related = %d markets, want %d", got, want)
	}
}

func TestUncorrelatedCandidates(t *testing.T) {
	c := New()
	id := SpotID{Zone: "ap-southeast-2a", Type: "g2.8xlarge", Product: ProductLinux}
	cands := c.UncorrelatedCandidates(id)
	if len(cands) == 0 {
		t.Fatal("no uncorrelated candidates")
	}
	for _, m := range cands {
		if m.Type.Family() == "g2" {
			t.Errorf("candidate %v shares the trigger family", m)
		}
		if m.Region() != "ap-southeast-2" {
			t.Errorf("candidate %v left the region", m)
		}
	}
}

// Property: every catalog spot market round-trips through its string form.
func TestSpotIDStringRoundTripProperty(t *testing.T) {
	c := New()
	markets := c.SpotMarkets()
	f := func(i uint32) bool {
		id := markets[int(i)%len(markets)]
		parsed, err := ParseSpotID(id.String())
		return err == nil && parsed == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: zone names always extend their region name.
func TestZoneRegionPrefixProperty(t *testing.T) {
	c := New()
	for _, z := range allZones(c) {
		r := z.RegionOf()
		if !strings.HasPrefix(string(z), string(r)) {
			t.Errorf("zone %q does not extend region %q", z, r)
		}
	}
}

// TestSpotIndex: every catalog market maps back to its own position, and an
// ID with any field outside the catalog is not found.
func TestSpotIndex(t *testing.T) {
	c := New()
	for i, id := range c.SpotMarkets() {
		if got, ok := c.SpotIndex(id); !ok || got != i {
			t.Fatalf("SpotIndex(%v) = %d, %v; want %d, true", id, got, ok, i)
		}
	}
	known := c.SpotMarkets()[0]
	for _, id := range []SpotID{
		{},
		{Zone: "us-east-1z", Type: known.Type, Product: known.Product},
		{Zone: known.Zone, Type: "q9.huge", Product: known.Product},
		{Zone: known.Zone, Type: known.Type, Product: "Plan 9"},
		{Zone: known.Zone, Type: known.Type, Product: "linux/unix"},
	} {
		if i, ok := c.SpotIndex(id); ok {
			t.Errorf("SpotIndex(%+v) = %d, true; want false", id, i)
		}
	}
}

// TestSpotOrder: each region's order, and the all-regions one, lists every
// market of its scope once, in ascending rendered-ID order, and a position
// modulo the product count is the market's product index.
func TestSpotOrder(t *testing.T) {
	c := New()
	ids := c.SpotMarkets()
	for _, r := range append([]Region{""}, c.Regions()...) {
		order, seen := c.SpotOrder(r), 0
		for i, p := range order {
			id := ids[p]
			if r != "" && id.Region() != r {
				t.Fatalf("SpotOrder(%q) lists %v", r, id)
			}
			if i > 0 && ids[order[i-1]].String() >= id.String() {
				t.Fatalf("SpotOrder(%q): %v before %v", r, ids[order[i-1]], id)
			}
			if Products[int(p)%len(Products)] != id.Product {
				t.Fatalf("SpotOrder(%q): position %d of %v is not its product's", r, p, id)
			}
			seen++
		}
		want := len(ids)
		if r != "" {
			want = len(c.ZonesIn(r)) * len(c.Types()) * len(Products)
		}
		if seen != want {
			t.Errorf("SpotOrder(%q) lists %d markets, want %d", r, seen, want)
		}
	}
	if order := c.SpotOrder("mars-1"); order != nil {
		t.Errorf("SpotOrder of an unknown region = %d positions, want none", len(order))
	}
}
