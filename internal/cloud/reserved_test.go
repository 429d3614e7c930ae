package cloud

import (
	"math"
	"testing"
	"time"

	"spotlight/internal/market"
)

func TestReservationPurchaseAndGuarantee(t *testing.T) {
	s := testSim(t, 1)
	od, _ := s.OnDemandPrice(testMarket)
	term := 30 * 24 * time.Hour
	res, err := s.PurchaseReservation(testMarket, term)
	if err != nil {
		t.Fatalf("PurchaseReservation: %v", err)
	}
	if res.State != ReservationIdle {
		t.Errorf("state = %v, want idle", res.State)
	}
	// Upfront cost: discounted on-demand rate for the whole term.
	wantCost := od * (1 - ReservedTermDiscount) * term.Hours()
	if math.Abs(res.UpfrontCost-wantCost) > 1e-6 {
		t.Errorf("upfront = %v, want %v", res.UpfrontCost, wantCost)
	}
	if math.Abs(s.ClientCost()-wantCost) > 1e-6 {
		t.Errorf("ClientCost = %v, want %v", s.ClientCost(), wantCost)
	}

	// The guarantee: saturate the pool so on-demand requests fail, then
	// start the reservation anyway.
	idx, _ := s.cat.SpotIndex(testMarket)
	p := s.pools[s.dm.MarketPoolIndex(idx)]
	p.odUsedUnits = p.odCapUnits // saturate

	if _, err := s.RunInstance(testMarket); !IsCode(err, ErrInsufficientCapacity) {
		t.Fatalf("on-demand request err = %v, want ICC (precondition)", err)
	}
	if err := s.StartReserved(res.ID); err != nil {
		t.Fatalf("StartReserved during saturation: %v (the §2.1.2 guarantee)", err)
	}
	if got := s.reservations[res.ID].State; got != ReservationRunning {
		t.Errorf("state = %v, want running", got)
	}
	// Starting again is idempotent.
	if err := s.StartReserved(res.ID); err != nil {
		t.Errorf("second start errored: %v", err)
	}
}

func TestReservationShrinksODSupply(t *testing.T) {
	s := testSim(t, 1)
	idx, _ := s.cat.SpotIndex(testMarket)
	pool := s.pools[s.dm.MarketPoolIndex(idx)]
	freeBefore := s.odFreeUnits(pool)
	units, _ := s.cat.Units(testMarket.Type)

	if _, err := s.PurchaseReservation(testMarket, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := s.odFreeUnits(pool); got != freeBefore-units {
		t.Errorf("free units = %d after purchase, want %d (Fig 2.2: granted reservations bound on-demand supply)",
			got, freeBefore-units)
	}
}

func TestReservationExpiryReleasesCapacity(t *testing.T) {
	s := testSim(t, 1)
	idx, _ := s.cat.SpotIndex(testMarket)
	pool := s.pools[s.dm.MarketPoolIndex(idx)]
	res, err := s.PurchaseReservation(testMarket, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	held := pool.clientODUnits
	if held == 0 {
		t.Fatal("purchase did not hold capacity")
	}
	for i := 0; i < 8; i++ { // 40 simulated minutes
		s.Step()
	}
	if got := s.reservations[res.ID].State; got != ReservationExpired {
		t.Fatalf("state = %v after term, want expired", got)
	}
	if pool.clientODUnits != 0 {
		t.Errorf("clientODUnits = %d after expiry, want 0", pool.clientODUnits)
	}
	if err := s.StartReserved(res.ID); !IsCode(err, ErrBadParameters) {
		t.Errorf("starting an expired reservation err = %v, want %s", err, ErrBadParameters)
	}
}

func TestReservationValidation(t *testing.T) {
	s := testSim(t, 1)
	if _, err := s.PurchaseReservation(testMarket, 0); !IsCode(err, ErrBadParameters) {
		t.Errorf("zero term err = %v", err)
	}
	bad := market.SpotID{Zone: "atlantis-1a", Type: "c3.large", Product: market.ProductLinux}
	if _, err := s.PurchaseReservation(bad, time.Hour); !IsCode(err, ErrBadParameters) {
		t.Errorf("unknown market err = %v", err)
	}
	if err := s.StartReserved("r-nope"); !IsCode(err, ErrNotFound) {
		t.Errorf("unknown id err = %v", err)
	}
}

func TestReservationPurchaseRejectedWhenSaturated(t *testing.T) {
	s := testSim(t, 1)
	idx, _ := s.cat.SpotIndex(testMarket)
	p := s.pools[s.dm.MarketPoolIndex(idx)]
	p.odUsedUnits = p.odCapUnits // no headroom
	if _, err := s.PurchaseReservation(testMarket, time.Hour); !IsCode(err, ErrInsufficientCapacity) {
		t.Errorf("purchase during saturation err = %v, want %s (§2.1.2 footnote)", err, ErrInsufficientCapacity)
	}
}
