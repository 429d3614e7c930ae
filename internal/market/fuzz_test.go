package market

import (
	"strings"
	"testing"
)

// FuzzParseSpotID exercises the ID parser with arbitrary input: it must
// never panic, whatever it accepts must round-trip through String, and the
// catalog must find it at its own position exactly when it lists it.
func FuzzParseSpotID(f *testing.F) {
	cat := New()
	listed := make(map[SpotID]bool, len(cat.SpotMarkets()))
	for _, id := range cat.SpotMarkets() {
		listed[id] = true
	}
	f.Add("us-east-1d:c3.2xlarge:Linux/UNIX")
	f.Add("sa-east-1a:m3.large:Windows")
	f.Add("a:b:c")
	f.Add(":::")
	f.Add("")
	f.Add("zone:type:product:extra")
	f.Add("zone:type")
	f.Add("\x00:\xff:☃")
	f.Add("us-east-1a:c3.large:SUSE Linux")
	f.Add("us-east-1d:c3.2xlarge:Linux/UNIX:")
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseSpotID(s)
		if err != nil {
			return
		}
		// Accepted IDs must have non-empty parts.
		if id.Zone == "" || id.Type == "" || id.Product == "" {
			t.Fatalf("accepted id with empty component: %q -> %+v", s, id)
		}
		// The product may itself contain colons (SplitN with n=3), so
		// String must reproduce the original input exactly.
		if got := id.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
		// Derived accessors must not panic on arbitrary content.
		_ = id.Region()
		_ = id.Pool()
		_ = id.Type.Family()
		_ = strings.Contains(string(id.Product), ":")
		i, found := cat.SpotIndex(id)
		switch {
		case found && cat.SpotMarkets()[i] != id:
			t.Fatalf("SpotIndex(%q) = %d, which lists %v", s, i, cat.SpotMarkets()[i])
		case found != listed[id]:
			t.Fatalf("SpotIndex(%q) found = %v, catalog lists it: %v", s, found, listed[id])
		}
	})
}

// checkCompare holds Compare to its contract: the sign of comparing the
// two String forms, and antisymmetry.
func checkCompare(t *testing.T, a, b SpotID) {
	t.Helper()
	want := strings.Compare(a.String(), b.String())
	if got := a.Compare(b); sign(got) != want {
		t.Fatalf("%q.Compare(%q) = %d, strings compare %d", a, b, got, want)
	}
	if got := b.Compare(a); sign(got) != -want {
		t.Fatalf("%q.Compare(%q) = %d, strings compare %d", b, a, got, -want)
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// FuzzSpotIDCompare checks the allocation-free ID order against the order
// of the rendered strings, on arbitrary fields — empty ones, fields that
// contain the separator, and fields that are a prefix of the other's
// included.
func FuzzSpotIDCompare(f *testing.F) {
	f.Add("us-east-1d", "c3.2xlarge", "Linux/UNIX", "us-east-1d", "c3.2xlarge", "Linux/UNIX")
	f.Add("us-east-1", "c3.large", "Windows", "us-east-1a", "c3.large", "Windows")  // ':' < 'a'
	f.Add("us-east-1", "c3.large", "Windows", "us-east-10", "c3.large", "Windows")  // ':' > '0'
	f.Add("us-east-1", "c3.large", "Windows", "us-east-1-", "c3.large", "Windows")  // ':' > '-'
	f.Add("us-east-1a", "c3", "Windows", "us-east-1a", "c3.large", "Windows")       // ':' > '.'
	f.Add("us-east-1a", "c3.large", "SUSE", "us-east-1a", "c3.large", "SUSE Linux") // end of string
	f.Add("a:b", "c", "d", "a", "b:c", "d")                                         // same string, different fields
	f.Add("a", "", "b", "a", ":", "")
	f.Add("", "", "", "", "", ":")
	f.Fuzz(func(t *testing.T, z1, t1, p1, z2, t2, p2 string) {
		checkCompare(t,
			SpotID{Zone: Zone(z1), Type: InstanceType(t1), Product: Product(p1)},
			SpotID{Zone: Zone(z2), Type: InstanceType(t2), Product: Product(p2)})
	})
}

// TestCompareMatchesStringOrder walks every pair of IDs whose fields come
// from a small set built around the separator: bytes below ':' ('-', '.',
// digits), above it (letters), the separator itself, and every field a
// strict prefix of another.
func TestCompareMatchesStringOrder(t *testing.T) {
	fields := []string{"", "a", "a-", "a.", "a0", "a9", "a:", "aA", "aa", "az", "b"}
	var ids []SpotID
	for _, z := range fields {
		for _, ty := range fields {
			for _, p := range fields[:4] {
				ids = append(ids, SpotID{Zone: Zone(z), Type: InstanceType(ty), Product: Product(p)})
			}
		}
	}
	for _, a := range ids {
		for _, b := range ids {
			checkCompare(t, a, b)
		}
	}
	cat := New()
	for i, a := range cat.SpotMarkets()[:600] {
		checkCompare(t, a, cat.SpotMarkets()[(i*7)%4134])
	}
}
