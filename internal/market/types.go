// Package market defines the cloud topology the whole reproduction shares:
// regions, availability zones, instance types grouped into families,
// product platforms, and the identifiers for spot and on-demand markets.
// It mirrors EC2 as the paper observed it in fall 2015: 9 regions,
// 26 availability zones, 53 instance types, and 3 product platforms, which
// multiply out to the "~4500 spot markets" the paper monitors.
package market

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Region names a geographical region, e.g. "us-east-1".
type Region string

// Zone names an availability zone, e.g. "us-east-1d".
type Zone string

// RegionOf extracts the region from a zone name by dropping the trailing
// zone letter ("us-east-1d" -> "us-east-1").
func (z Zone) RegionOf() Region {
	s := string(z)
	if len(s) == 0 {
		return ""
	}
	return Region(s[:len(s)-1])
}

// Product is the platform a market sells, matching EC2's product
// descriptions.
type Product string

// The three product platforms the paper monitors (Chapter 4).
const (
	ProductLinux   Product = "Linux/UNIX"
	ProductWindows Product = "Windows"
	ProductSUSE    Product = "SUSE Linux"
)

// Products lists all product platforms in canonical order.
var Products = []Product{ProductLinux, ProductWindows, ProductSUSE}

// Family is an instance-type family prefix such as "c3" or "m4". Types in
// the same family are assumed to share a physical resource pool (§3.2.1).
type Family string

// InstanceType is a concrete server type such as "c3.2xlarge".
type InstanceType string

// Family returns the family prefix of the type ("c3.2xlarge" -> "c3").
func (t InstanceType) Family() Family {
	s := string(t)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return Family(s[:i])
	}
	return Family(s)
}

// SpotID identifies one spot market: an instance type sold under a product
// platform in a single availability zone, each with its own dynamic price.
type SpotID struct {
	Zone    Zone
	Type    InstanceType
	Product Product
}

// String renders the ID as "zone:type:product".
func (id SpotID) String() string {
	return string(id.Zone) + ":" + string(id.Type) + ":" + string(id.Product)
}

// Compare orders IDs exactly as their String forms order (negative when
// id sorts first) without building either string: rankings break ties by
// market ID once per surviving row, and most rows tie. Fields are walked as
// the chunks "zone", ":", "type", ":", "product", so a field that is a
// prefix of the other's is decided by its separator against the other's
// next byte — "us-east-1:" sorts after "us-east-10:" but before
// "us-east-1a:".
func (id SpotID) Compare(o SpotID) int {
	a := [...]string{string(id.Zone), ":", string(id.Type), ":", string(id.Product)}
	b := [...]string{string(o.Zone), ":", string(o.Type), ":", string(o.Product)}
	i, j := 0, 0
	as, bs := a[0], b[0]
	for {
		for as == "" && i < len(a)-1 {
			i++
			as = a[i]
		}
		for bs == "" && j < len(b)-1 {
			j++
			bs = b[j]
		}
		n := min(len(as), len(bs))
		if n == 0 { // one side is exhausted: the shorter string sorts first
			return len(as) - len(bs)
		}
		if c := strings.Compare(as[:n], bs[:n]); c != 0 {
			return c
		}
		as, bs = as[n:], bs[n:]
	}
}

// Region returns the region containing the market's zone.
func (id SpotID) Region() Region { return id.Zone.RegionOf() }

// ParseSpotID parses the "zone:type:product" form produced by String.
func ParseSpotID(s string) (SpotID, error) {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return SpotID{}, fmt.Errorf("market: malformed spot market id %q", s)
	}
	return SpotID{
		Zone:    Zone(parts[0]),
		Type:    InstanceType(parts[1]),
		Product: Product(parts[2]),
	}, nil
}

// MarshalJSON serializes the ID in its canonical "zone:type:product"
// string form, keeping API payloads and store snapshots compact. The zero
// ID marshals as the empty string.
func (id SpotID) MarshalJSON() ([]byte, error) {
	if id == (SpotID{}) {
		return json.Marshal("")
	}
	return json.Marshal(id.String())
}

// UnmarshalJSON parses the canonical string form; the empty string yields
// the zero ID.
func (id *SpotID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if s == "" {
		*id = SpotID{}
		return nil
	}
	parsed, err := ParseSpotID(s)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// PoolID identifies one physical capacity pool. Following the paper's model
// (Fig 2.2 and §3.2.1), every instance type of one family inside one
// availability zone draws from the same pool of physical servers, shared
// across the reserved, on-demand, and spot contract tiers.
type PoolID struct {
	Zone   Zone
	Family Family
}

// String renders the ID as "zone:family".
func (id PoolID) String() string {
	return string(id.Zone) + ":" + string(id.Family)
}

// Pool returns the capacity pool backing this spot market.
func (id SpotID) Pool() PoolID {
	return PoolID{Zone: id.Zone, Family: id.Type.Family()}
}
