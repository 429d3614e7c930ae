package demand

import "testing"

func TestDefaultProfilesValid(t *testing.T) {
	for region, p := range DefaultProfiles() {
		switch {
		case p.Provision <= 0:
			t.Errorf("%s: provision %v not positive", region, p.Provision)
		case p.Volatility < 0 || p.Volatility > 1:
			t.Errorf("%s: volatility %v outside [0,1]", region, p.Volatility)
		case p.SpikeRatePerDay < 0 || p.MarketSpikeRatePerDay < 0:
			t.Errorf("%s: negative spike rate", region)
		case p.RegionalShare < 0 || p.RegionalShare > 1:
			t.Errorf("%s: regional share %v outside [0,1]", region, p.RegionalShare)
		case p.PoolScale <= 0:
			t.Errorf("%s: pool scale %v not positive", region, p.PoolScale)
		case p.SpotCNABase < 0 || p.SpotCNABase > 0.5:
			t.Errorf("%s: spot CNA base %v outside [0,0.5]", region, p.SpotCNABase)
		}
	}
	if len(DefaultProfiles()) != 9 {
		t.Errorf("default profiles = %d regions, want 9", len(DefaultProfiles()))
	}
}

func TestDefaultProvisioningOrdering(t *testing.T) {
	// §5.2.2: us-east-1 best provisioned, sa-east-1 worst.
	p := DefaultProfiles()
	if p["us-east-1"].Provision <= p["sa-east-1"].Provision {
		t.Errorf("us-east-1 provision %v not above sa-east-1 %v",
			p["us-east-1"].Provision, p["sa-east-1"].Provision)
	}
	if p["sa-east-1"].SpikeRatePerDay <= p["us-east-1"].SpikeRatePerDay {
		t.Errorf("sa-east-1 spike rate %v not above us-east-1 %v",
			p["sa-east-1"].SpikeRatePerDay, p["us-east-1"].SpikeRatePerDay)
	}
}
