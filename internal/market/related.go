package market

// This file computes "related markets" exactly as Chapter 3 defines them.
// After SpotLight detects an unavailable on-demand server it widens its
// probing to (1) other server types in the same family within the same
// availability zone, because they likely share a physical pool (§3.2.1),
// and (2) the same family in the region's other availability zones,
// because AZ-unspecified requests couple demand across zones (§3.2.2).

// RelatedSameZone returns the other spot markets in id's family within the
// same availability zone and product platform, ordered by size.
func (c *Catalog) RelatedSameZone(id SpotID) []SpotID {
	var out []SpotID
	for _, t := range c.FamilyTypes(id.Type.Family()) {
		if t == id.Type {
			continue
		}
		out = append(out, SpotID{Zone: id.Zone, Type: t, Product: id.Product})
	}
	return out
}

// RelatedOtherZones returns the spot markets for id's whole family in every
// other availability zone of the same region, same product platform.
func (c *Catalog) RelatedOtherZones(id SpotID) []SpotID {
	var out []SpotID
	for _, z := range c.ZonesIn(id.Region()) {
		if z == id.Zone {
			continue
		}
		for _, t := range c.FamilyTypes(id.Type.Family()) {
			out = append(out, SpotID{Zone: z, Type: t, Product: id.Product})
		}
	}
	return out
}

// Related returns all related markets: the union of RelatedSameZone and
// RelatedOtherZones. This is the probe fan-out set of §3.2.
func (c *Catalog) Related(id SpotID) []SpotID {
	same := c.RelatedSameZone(id)
	other := c.RelatedOtherZones(id)
	out := make([]SpotID, 0, len(same)+len(other))
	out = append(out, same...)
	out = append(out, other...)
	return out
}

// UncorrelatedCandidates returns spot markets in the same region whose
// family differs from id's family. Per the case studies (Chapter 6), these
// are hosted on different physical servers, so their availability is
// uncorrelated with id's — the pool SpotCheck and SpotOn should fail over
// to.
func (c *Catalog) UncorrelatedCandidates(id SpotID) []SpotID {
	fam := id.Type.Family()
	var out []SpotID
	for _, z := range c.ZonesIn(id.Region()) {
		for _, t := range c.Types() {
			if t.Family() == fam {
				continue
			}
			out = append(out, SpotID{Zone: z, Type: t, Product: id.Product})
		}
	}
	return out
}
