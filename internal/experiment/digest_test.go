package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/market"
)

// TestStudyDigestPinned holds three 1-day studies to figures recorded
// once and kept across commits: the SHA-256 of the store's JSON dump,
// the budget controller's spend and the service's counters.
// TestDeterministicStudies compares two runs of one binary, so it cannot
// see a change that reorders the random draws; this test can. The
// constants change only together with a model change that CHANGES.md
// states — a pure speed-up must leave every one of them as it is.
func TestStudyDigestPinned(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		regions []market.Region
		sha     string
		spent   float64
		stats   core.Counters
	}{
		{
			name:  "seed42-all",
			seed:  42,
			sha:   "e0d73adb1c9774754caa3ef5c798cb82bb1511721447e8fb609079cbcfe15f21",
			spent: 6723.450317300008,
			stats: core.Counters{SpikesSeen: 2419, SpikesSampled: 2372, ODProbes: 4673, ODRejections: 1536,
				SpotProbes: 3371, SpotRejections: 29, BidSpreadRuns: 4, Revocations: 31},
		},
		{
			name:  "seed7-all",
			seed:  7,
			sha:   "7bc8148cbb5cdebcfb917bb7618e980f9e9882e1d6900c8e28f3b33014235072",
			spent: 7829.536637999974,
			stats: core.Counters{SpikesSeen: 2614, SpikesSampled: 2571, ODProbes: 5412, ODRejections: 1772,
				SpotProbes: 3730, SpotRejections: 48, BidSpreadRuns: 4, Revocations: 25},
		},
		{
			name:    "seed42-us-east-1+us-west-2",
			seed:    42,
			regions: []market.Region{"us-east-1", "us-west-2"},
			sha:     "8654ef0e9308d6d0f4fad14885c844079c9d24e42c813335a3582adddb011bd2",
			spent:   3718.962560000023,
			stats: core.Counters{SpikesSeen: 606, SpikesSampled: 597, ODProbes: 2883, ODRejections: 814,
				SpotProbes: 3764, SpotRejections: 113, BidSpreadRuns: 4, Revocations: 16},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Run(Config{Seed: tc.seed, Days: 1, Regions: tc.regions})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := st.DB.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
				t.Errorf("WriteJSON SHA-256 = %s, want %s", got, tc.sha)
			}
			if got := st.Svc.Spent(); got != tc.spent {
				t.Errorf("Spent() = %v, want %v", got, tc.spent)
			}
			if got := st.Svc.Stats(); got != tc.stats {
				t.Errorf("Stats() = %#v, want %#v", got, tc.stats)
			}
		})
	}
}
