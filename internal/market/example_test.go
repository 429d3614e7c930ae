package market_test

import (
	"fmt"

	"spotlight/internal/market"
)

func ExampleNew() {
	cat := market.New()
	fmt.Println("regions:", len(cat.Regions()))
	zones := 0
	for _, r := range cat.Regions() {
		zones += len(cat.ZonesIn(r))
	}
	fmt.Println("zones:", zones)
	fmt.Println("types:", len(cat.Types()))
	fmt.Println("spot markets:", len(cat.SpotMarkets()))
	// Output:
	// regions: 9
	// zones: 26
	// types: 53
	// spot markets: 4134
}

func ExampleCatalog_RelatedSameZone() {
	cat := market.New()
	id := market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	for _, rel := range cat.RelatedSameZone(id) {
		fmt.Println(rel.Type)
	}
	// Output:
	// c3.large
	// c3.xlarge
	// c3.4xlarge
	// c3.8xlarge
}

func ExampleCatalog_OnDemandPrice() {
	cat := market.New()
	p, err := cat.OnDemandPrice("us-east-1", "c3.2xlarge", market.ProductLinux)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("$%.3f/hour\n", p)
	// Output:
	// $0.420/hour
}

func ExampleParseSpotID() {
	id, err := market.ParseSpotID("sa-east-1a:d2.8xlarge:Linux/UNIX")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("region:", id.Region())
	fmt.Println("family:", id.Type.Family())
	fmt.Println("pool:", id.Pool())
	// Output:
	// region: sa-east-1
	// family: d2
	// pool: sa-east-1a:d2
}
