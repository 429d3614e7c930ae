package cloud

import (
	"math/rand/v2"
	"testing"
	"time"

	"spotlight/internal/market"
)

// checkInvariants asserts the conservation laws the simulator must never
// violate, whatever API calls the client made.
func checkInvariants(t *testing.T, s *Sim) {
	t.Helper()
	// Pool accounting: client holdings are non-negative and within
	// capacity.
	for _, p := range s.pools {
		if p.clientODUnits < 0 || p.clientSpotUnits < 0 {
			t.Fatalf("pool %v: negative client units od=%d spot=%d",
				p.id, p.clientODUnits, p.clientSpotUnits)
		}
		if p.clientODUnits+p.clientSpotUnits > p.capacity {
			t.Fatalf("pool %v: client units %d+%d exceed capacity %d",
				p.id, p.clientODUnits, p.clientSpotUnits, p.capacity)
		}
		if p.spotSupplyUnits < 0 {
			t.Fatalf("pool %v: negative spot supply %v", p.id, p.spotSupplyUnits)
		}
	}
	// Quota accounting: regional counters are non-negative and match the
	// live instances.
	liveByType := make(map[market.Region]map[market.InstanceType]int)
	for _, inst := range s.instances {
		if inst.State == InstanceTerminated || inst.released {
			continue
		}
		if inst.Spot {
			continue // spot doesn't count toward the run quota
		}
		r := inst.Market.Region()
		if liveByType[r] == nil {
			liveByType[r] = make(map[market.InstanceType]int)
		}
		liveByType[r][inst.Market.Type]++
	}
	for rname, reg := range s.regions {
		if reg.openSpotReqs < 0 {
			t.Fatalf("region %v: negative open spot requests", rname)
		}
		if reg.openSpotReqs != len(heldInRegion(s, rname)) {
			t.Fatalf("region %v: openSpotReqs=%d but %d held requests",
				rname, reg.openSpotReqs, len(heldInRegion(s, rname)))
		}
		for ty, n := range reg.runningByType {
			if n < 0 {
				t.Fatalf("region %v: negative quota for %v", rname, ty)
			}
			if n != liveByType[rname][ty] {
				t.Fatalf("region %v type %v: quota=%d but %d live instances",
					rname, ty, n, liveByType[rname][ty])
			}
		}
	}
	// Billing is monotone non-negative.
	if s.clientCost < 0 {
		t.Fatalf("negative client cost %v", s.clientCost)
	}
	// Held requests are actually in held states.
	for id, req := range s.heldReqs {
		if !req.State.Held() {
			t.Fatalf("request %v in heldReqs with state %v", id, req.State)
		}
	}
}

func heldInRegion(s *Sim, r market.Region) []RequestID {
	var out []RequestID
	for id, req := range s.heldReqs {
		if req.Market.Region() == r {
			out = append(out, id)
		}
	}
	return out
}

// TestInvariantsUnderRandomAPIUse drives the simulator with a random but
// seeded client: launches, spot bids at random levels, cancels,
// and terminations, interleaved with time, then checks conservation after
// every burst. This is the property-based safety net for the whole API
// surface.
func TestInvariantsUnderRandomAPIUse(t *testing.T) {
	s := testSim(t, 99)
	rng := rand.New(rand.NewPCG(99, 123))
	markets := s.cat.SpotMarkets()

	var instances []InstanceID
	var requests []RequestID

	for step := 0; step < 120; step++ {
		for call := 0; call < 12; call++ {
			m := markets[rng.IntN(len(markets))]
			od, err := s.OnDemandPrice(m)
			if err != nil {
				t.Fatal(err)
			}
			switch rng.IntN(5) {
			case 0: // on-demand launch
				if inst, err := s.RunInstance(m); err == nil {
					instances = append(instances, inst.ID)
				}
			case 1: // spot bid at a random level (sometimes invalid)
				bid := od * (rng.Float64()*11 - 0.2)
				if req, err := s.RequestSpotInstance(m, bid); err == nil {
					requests = append(requests, req.ID)
					if req.Instance != "" {
						instances = append(instances, req.Instance)
					}
				}
			case 2: // terminate something
				if len(instances) > 0 {
					id := instances[rng.IntN(len(instances))]
					_ = s.TerminateInstance(id)
				}
			case 3: // cancel something
				if len(requests) > 0 {
					id := requests[rng.IntN(len(requests))]
					_ = s.CancelSpotRequest(id)
				}
			case 4: // describe (read-only)
				if len(requests) > 0 {
					_, _ = s.DescribeSpotRequest(requests[rng.IntN(len(requests))])
				}
			}
		}
		s.Step()
		checkInvariants(t, s)
	}
	if s.ClientCost() <= 0 {
		t.Error("random client paid nothing; billing path untested")
	}
}

// TestInvariantsUnderLongIdle ensures a client-free simulation stays sane
// (pure demand evolution, pruning, outage tracking).
func TestInvariantsUnderLongIdle(t *testing.T) {
	s := testSim(t, 7)
	steps := int(48 * time.Hour / s.cfg.Tick)
	for i := 0; i < steps; i++ {
		s.Step()
	}
	checkInvariants(t, s)
	if got := len(s.instances); got != 0 {
		t.Errorf("idle simulation accumulated %d instances", got)
	}
}
