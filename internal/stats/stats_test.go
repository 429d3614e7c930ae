package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
	}
	for _, tt := range tests {
		if got := NormCDF(tt.x); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("NormCDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

// Property: the lognormal CDF at exp(mu + sigma*z) is the normal CDF at z.
func TestLogNormalRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		z := math.Mod(raw, 8)
		const mu, sigma = -1.2, 0.6
		x := math.Exp(mu + sigma*z)
		return math.Abs(LogNormalCDF(mu, sigma, x)-NormCDF(z)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogNormalCDFNonPositive(t *testing.T) {
	if got := LogNormalCDF(0, 1, 0); got != 0 {
		t.Errorf("LogNormalCDF(x=0) = %v, want 0", got)
	}
	if got := LogNormalCDF(0, 1, -3); got != 0 {
		t.Errorf("LogNormalCDF(x<0) = %v, want 0", got)
	}
}
