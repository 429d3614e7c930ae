package store

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"spotlight/internal/market"
)

// TestRankOrderWalksBestFirstAndRebuildsOnAppend keys markets by their
// all-time crossings: the walk asks in key order, ties in market-ID order,
// visits each admitted market with the ID and key it asked about, stops at
// the first refusal, and leaves out what the key refuses. The
// order is built once per scope generation: a walk over an unchanged scope
// reads no key, an append into the scope makes the next walk read every
// key again, and an append outside it does not.
func TestRankOrderWalksBestFirstAndRebuildsOnAppend(t *testing.T) {
	ids := []market.SpotID{
		{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductLinux},
		{Zone: "us-east-1b", Type: "c3.large", Product: market.ProductLinux},
		{Zone: "us-east-1a", Type: "c3.large", Product: market.ProductLinux},
		{Zone: "us-east-1c", Type: "c3.large", Product: market.ProductLinux}, // never crosses
	}
	s := New()
	for i, id := range ids {
		ratio := 1.5
		if i == len(ids)-1 {
			ratio = 0.5
		}
		s.AppendSpike(SpikeEvent{At: t0, Market: id, Ratio: ratio})
	}
	s.AppendSpike(SpikeEvent{At: t0.Add(time.Hour), Market: ids[0], Ratio: 2})
	keyed := 0
	o := NewRankOrder(s, func(v MarketView) (int, bool) {
		keyed++
		c := v.CrossingStats(AllTime).Crossings
		return c, c > 0
	}, func(a, b int) int { return cmp.Compare(b, a) })

	walk := func(stopAt int) (asked []market.SpotID, viewed int) {
		var askedKey int
		viewed = o.Walk("us-east-1", market.ProductLinux, func(id market.SpotID, key int) bool {
			asked, askedKey = append(asked, id), key
			return len(asked) != stopAt
		}, func(id market.SpotID, key int, v MarketView) {
			if last := asked[len(asked)-1]; id != last || key != askedKey || v.Market() != last {
				t.Errorf("visited %v (key %d, view of %v) after asking about %v (key %d)", id, key, v.Market(), last, askedKey)
			}
			if c := v.CrossingStats(AllTime).Crossings; key != c {
				t.Errorf("visited %v with key %d; its view reads %d crossings", id, key, c)
			}
		})
		return asked, viewed
	}
	// Two crossings first, then the one-crossing markets in ID order.
	want := []market.SpotID{ids[0], ids[2], ids[1]}
	if asked, viewed := walk(0); !slices.Equal(asked, want) || viewed != 3 || keyed != 4 {
		t.Errorf("first walk asked %v, viewed %d, keyed %d; want %v, 3 and 4", asked, viewed, keyed, want)
	}
	if asked, viewed := walk(2); !slices.Equal(asked, want[:2]) || viewed != 1 || keyed != 4 {
		t.Errorf("stopped walk asked %v, viewed %d, keyed %d; want %v, 1 and no new key", asked, viewed, keyed, want[:2])
	}

	s.AppendSpike(SpikeEvent{At: t0, Market: market.SpotID{Zone: "sa-east-1a", Type: "c3.large", Product: market.ProductLinux}, Ratio: 3})
	if walk(0); keyed != 4 {
		t.Errorf("an append outside the scope rebuilt its order: %d keys read", keyed)
	}
	s.AppendSpike(SpikeEvent{At: t0.Add(2 * time.Hour), Market: ids[3], Ratio: 4})
	s.AppendSpike(SpikeEvent{At: t0.Add(3 * time.Hour), Market: ids[3], Ratio: 4})
	want = []market.SpotID{ids[0], ids[3], ids[2], ids[1]}
	if asked, _ := walk(0); !slices.Equal(asked, want) || keyed != 8 {
		t.Errorf("after an append the walk asked %v with %d keys read; want %v and 8", asked, keyed, want)
	}
}

// TestRankOrderKeepsNoEmptyScope walks scopes that hold no records — an
// unknown region, an unknown product, both, and a known region under an
// unknown product — and requires nothing walked and no order kept.
func TestRankOrderKeepsNoEmptyScope(t *testing.T) {
	s := New()
	s.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	o := NewRankOrder(s, func(v MarketView) (int, bool) { return 0, true }, cmp.Compare[int])
	for _, sc := range []rollupScope{{"mars-1", ""}, {"", "BeOS"}, {"mars-1", "BeOS"}, {"us-east-1", "BeOS"}, {"eu-west-1", ""}} {
		if n := o.Walk(sc.region, sc.product, func(market.SpotID, int) bool { return true }, func(market.SpotID, int, MarketView) {}); n != 0 {
			t.Errorf("%+v: walk viewed %d markets", sc, n)
		}
	}
	if len(o.scopes) != 0 {
		t.Errorf("orders kept for %d scopes with no records", len(o.scopes))
	}
	if n := o.Walk("", "", func(market.SpotID, int) bool { return true }, func(market.SpotID, int, MarketView) {}); n != 1 || len(o.scopes) != 1 {
		t.Errorf("the store's scope: viewed %d, %d orders kept; want 1 and 1", n, len(o.scopes))
	}
}
