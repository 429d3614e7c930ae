package market

import (
	"fmt"
	"slices"
	"sort"
)

// typeSpec is one row of the instance-type table: the type's capacity
// weight in abstract "units" (the smallest type is 1 unit; sizes within a
// family differ by powers of two, as §3.2.1 observes), and its hourly
// Linux/UNIX on-demand price in us-east-1, in dollars.
type typeSpec struct {
	units int
	price float64
}

// The 53 instance types EC2 offered during the paper's measurement period,
// with 2015-era us-east-1 Linux on-demand prices.
var typeTable = map[InstanceType]typeSpec{
	"t1.micro": {units: 1, price: 0.020},

	"t2.micro":  {units: 1, price: 0.013},
	"t2.small":  {units: 2, price: 0.026},
	"t2.medium": {units: 4, price: 0.052},
	"t2.large":  {units: 8, price: 0.104},

	"m1.small":  {units: 2, price: 0.044},
	"m1.medium": {units: 4, price: 0.087},
	"m1.large":  {units: 8, price: 0.175},
	"m1.xlarge": {units: 16, price: 0.350},

	"m2.xlarge":  {units: 16, price: 0.245},
	"m2.2xlarge": {units: 32, price: 0.490},
	"m2.4xlarge": {units: 64, price: 0.980},

	"m3.medium":  {units: 4, price: 0.067},
	"m3.large":   {units: 8, price: 0.133},
	"m3.xlarge":  {units: 16, price: 0.266},
	"m3.2xlarge": {units: 32, price: 0.532},

	"m4.large":    {units: 8, price: 0.126},
	"m4.xlarge":   {units: 16, price: 0.252},
	"m4.2xlarge":  {units: 32, price: 0.504},
	"m4.4xlarge":  {units: 64, price: 1.008},
	"m4.10xlarge": {units: 160, price: 2.520},

	"c1.medium": {units: 4, price: 0.130},
	"c1.xlarge": {units: 16, price: 0.520},

	"c3.large":   {units: 8, price: 0.105},
	"c3.xlarge":  {units: 16, price: 0.210},
	"c3.2xlarge": {units: 32, price: 0.420},
	"c3.4xlarge": {units: 64, price: 0.840},
	"c3.8xlarge": {units: 128, price: 1.680},

	"c4.large":   {units: 8, price: 0.105},
	"c4.xlarge":  {units: 16, price: 0.209},
	"c4.2xlarge": {units: 32, price: 0.419},
	"c4.4xlarge": {units: 64, price: 0.838},
	"c4.8xlarge": {units: 128, price: 1.675},

	"r3.large":   {units: 8, price: 0.166},
	"r3.xlarge":  {units: 16, price: 0.333},
	"r3.2xlarge": {units: 32, price: 0.665},
	"r3.4xlarge": {units: 64, price: 1.330},
	"r3.8xlarge": {units: 128, price: 2.660},

	"i2.xlarge":  {units: 16, price: 0.853},
	"i2.2xlarge": {units: 32, price: 1.705},
	"i2.4xlarge": {units: 64, price: 3.410},
	"i2.8xlarge": {units: 128, price: 6.820},

	"d2.xlarge":  {units: 16, price: 0.690},
	"d2.2xlarge": {units: 32, price: 1.380},
	"d2.4xlarge": {units: 64, price: 2.760},
	"d2.8xlarge": {units: 128, price: 5.520},

	"g2.2xlarge": {units: 32, price: 0.650},
	"g2.8xlarge": {units: 128, price: 2.600},

	"cc2.8xlarge": {units: 128, price: 2.000},
	"cr1.8xlarge": {units: 128, price: 3.500},
	"hi1.4xlarge": {units: 64, price: 3.100},
	"hs1.8xlarge": {units: 128, price: 4.600},
	"cg1.4xlarge": {units: 64, price: 2.100},
}

// familyMemPerVCPU maps an instance family to its approximate memory per
// vCPU in GB (2015-era generations). Families absent from the table use
// defaultMemPerVCPU. Together with the units-derived vCPU count this
// gives every type the capacity attributes (vCPU, memory) the advisor
// filters workload floors against.
var familyMemPerVCPU = map[Family]float64{
	"t1":  0.6,
	"t2":  1.0,
	"m1":  1.7,
	"m2":  8.6,
	"m3":  3.75,
	"m4":  4.0,
	"c1":  0.9,
	"c3":  1.875,
	"c4":  1.875,
	"r3":  7.625,
	"i2":  7.625,
	"d2":  7.625,
	"g2":  3.75,
	"cc2": 2.6,
	"cr1": 15.25,
	"hi1": 7.5,
	"hs1": 7.3,
	"cg1": 1.4,
}

const defaultMemPerVCPU = 2.0

// regionSpec describes a region: its zone letters and its on-demand price
// multiplier relative to us-east-1.
type regionSpec struct {
	zones     string
	priceMult float64
}

// The 9 regions (26 availability zones total) EC2 operated during the
// study, with approximate 2015-era price multipliers.
var regionTable = map[Region]regionSpec{
	"us-east-1":      {zones: "abcde", priceMult: 1.00},
	"us-west-1":      {zones: "ab", priceMult: 1.12},
	"us-west-2":      {zones: "abc", priceMult: 1.00},
	"eu-west-1":      {zones: "abc", priceMult: 1.10},
	"eu-central-1":   {zones: "ab", priceMult: 1.19},
	"ap-northeast-1": {zones: "abc", priceMult: 1.21},
	"ap-southeast-1": {zones: "ab", priceMult: 1.25},
	"ap-southeast-2": {zones: "abc", priceMult: 1.27},
	"sa-east-1":      {zones: "abc", priceMult: 1.43},
}

// productMult maps a product platform to its price multiplier over
// Linux/UNIX (Windows carries the license premium).
var productMult = map[Product]float64{
	ProductLinux:   1.00,
	ProductSUSE:    1.08,
	ProductWindows: 1.35,
}

// Catalog is the immutable topology: regions, zones, instance types, and
// the cross product of spot and on-demand markets. Construct with New; a
// Catalog is safe for concurrent use because it is never mutated after
// construction.
type Catalog struct {
	regions     []Region
	zones       []Zone
	zonesByReg  map[Region][]Zone
	types       []InstanceType
	zoneIndex   map[Zone]int
	typeIndex   map[InstanceType]int
	families    []Family
	familyTypes map[Family][]InstanceType
	spotMarkets []SpotID
	// spotOrder holds positions in spotMarkets in SpotID.Compare order:
	// every region's under "", each region's under its name.
	spotOrder map[Region][]int32
	pools     []PoolID
}

// New builds the full EC2-2015 catalog.
func New() *Catalog {
	c := &Catalog{
		zonesByReg:  make(map[Region][]Zone, len(regionTable)),
		zoneIndex:   make(map[Zone]int),
		typeIndex:   make(map[InstanceType]int, len(typeTable)),
		familyTypes: make(map[Family][]InstanceType),
	}

	for r := range regionTable {
		c.regions = append(c.regions, r)
	}
	sort.Slice(c.regions, func(i, j int) bool { return c.regions[i] < c.regions[j] })

	for _, r := range c.regions {
		for _, letter := range regionTable[r].zones {
			z := Zone(string(r) + string(letter))
			c.zoneIndex[z] = len(c.zones)
			c.zones = append(c.zones, z)
			c.zonesByReg[r] = append(c.zonesByReg[r], z)
		}
	}

	for t := range typeTable {
		c.types = append(c.types, t)
	}
	sort.Slice(c.types, func(i, j int) bool { return c.types[i] < c.types[j] })

	for i, t := range c.types {
		c.typeIndex[t] = i
		f := t.Family()
		c.familyTypes[f] = append(c.familyTypes[f], t)
	}
	for f, ts := range c.familyTypes {
		sort.Slice(ts, func(i, j int) bool {
			return typeTable[ts[i]].units < typeTable[ts[j]].units
		})
		c.families = append(c.families, f)
	}
	sort.Slice(c.families, func(i, j int) bool { return c.families[i] < c.families[j] })

	var all []int32
	for _, z := range c.zones {
		for _, f := range c.families {
			c.pools = append(c.pools, PoolID{Zone: z, Family: f})
		}
		for _, t := range c.types {
			for _, p := range Products {
				all = append(all, int32(len(c.spotMarkets)))
				c.spotMarkets = append(c.spotMarkets, SpotID{Zone: z, Type: t, Product: p})
			}
		}
	}
	slices.SortFunc(all, func(a, b int32) int { return c.spotMarkets[a].Compare(c.spotMarkets[b]) })
	// A zone is its region's name and a letter, so each region's markets
	// are one run of that order, the runs in Regions order.
	c.spotOrder = map[Region][]int32{"": all}
	for _, r := range c.regions {
		n := len(c.zonesByReg[r]) * len(c.types) * len(Products)
		c.spotOrder[r], all = all[:n:n], all[n:]
	}
	return c
}

// Regions returns all regions in sorted order.
func (c *Catalog) Regions() []Region { return c.regions }

// ZonesIn returns the availability zones of region r.
func (c *Catalog) ZonesIn(r Region) []Zone { return c.zonesByReg[r] }

// Types returns all instance types in sorted order.
func (c *Catalog) Types() []InstanceType { return c.types }

// Families returns all instance families in sorted order.
func (c *Catalog) Families() []Family { return c.families }

// FamilyTypes returns the types of family f ordered by size (smallest
// first).
func (c *Catalog) FamilyTypes(f Family) []InstanceType { return c.familyTypes[f] }

// SpotMarkets returns every spot market in the catalog, zone by zone in
// Zones order, within a zone type by type in Types order, within a type
// product by product in Products order.
func (c *Catalog) SpotMarkets() []SpotID { return c.spotMarkets }

// SpotOrder returns the positions in SpotMarkets of region r's markets
// (every region's when r is empty) in SpotID.Compare order; nil for a
// region not in the catalog. A position modulo len(Products) is its
// market's index in Products.
func (c *Catalog) SpotOrder(r Region) []int32 { return c.spotOrder[r] }

// SpotIndex returns id's position in SpotMarkets; false when its zone,
// type or product is not in the catalog.
func (c *Catalog) SpotIndex(id SpotID) (int, bool) {
	zi, okZone := c.zoneIndex[id.Zone]
	ti, okType := c.typeIndex[id.Type]
	pi := slices.Index(Products, id.Product)
	if !okZone || !okType || pi < 0 {
		return 0, false
	}
	return (zi*len(c.types)+ti)*len(Products) + pi, true
}

// Pools returns every physical capacity pool (zone x family).
func (c *Catalog) Pools() []PoolID { return c.pools }

// Units returns the capacity weight of instance type t. It returns an
// error for unknown types.
func (c *Catalog) Units(t InstanceType) (int, error) {
	spec, ok := typeTable[t]
	if !ok {
		return 0, fmt.Errorf("market: unknown instance type %q", t)
	}
	return spec.units, nil
}

// VCPU returns the vCPU count of instance type t, derived from its
// capacity weight (four units per vCPU, minimum one). It returns an error
// for unknown types.
func (c *Catalog) VCPU(t InstanceType) (int, error) {
	spec, ok := typeTable[t]
	if !ok {
		return 0, fmt.Errorf("market: unknown instance type %q", t)
	}
	return max(1, spec.units/4), nil
}

// MemoryGB returns the memory of instance type t in GB, from the family's
// memory-per-vCPU profile. It returns an error for unknown types.
func (c *Catalog) MemoryGB(t InstanceType) (float64, error) {
	v, err := c.VCPU(t)
	if err != nil {
		return 0, err
	}
	per, ok := familyMemPerVCPU[t.Family()]
	if !ok {
		per = defaultMemPerVCPU
	}
	return float64(v) * per, nil
}

// HasRegion reports whether r is in the catalog.
func (c *Catalog) HasRegion(r Region) bool {
	_, ok := regionTable[r]
	return ok
}

// OnDemandPrice returns the hourly on-demand price in dollars for the
// given type and product in region r.
func (c *Catalog) OnDemandPrice(r Region, t InstanceType, p Product) (float64, error) {
	spec, ok := typeTable[t]
	if !ok {
		return 0, fmt.Errorf("market: unknown instance type %q", t)
	}
	reg, ok := regionTable[r]
	if !ok {
		return 0, fmt.Errorf("market: unknown region %q", r)
	}
	mult, ok := productMult[p]
	if !ok {
		return 0, fmt.Errorf("market: unknown product %q", p)
	}
	return spec.price * reg.priceMult * mult, nil
}

// SpotODPrice returns the on-demand price corresponding to spot market id,
// the reference against which spike multiples are measured throughout the
// paper.
func (c *Catalog) SpotODPrice(id SpotID) (float64, error) {
	return c.OnDemandPrice(id.Region(), id.Type, id.Product)
}
