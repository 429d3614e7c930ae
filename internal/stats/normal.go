package stats

import "math"

// NormCDF returns the standard normal cumulative distribution function
// evaluated at x.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// LogNormalCDF returns P(X <= x) for a lognormal distribution with log-mean
// mu and log-stddev sigma. It returns 0 for x <= 0.
func LogNormalCDF(mu, sigma, x float64) float64 {
	if x <= 0 {
		return 0
	}
	return NormCDF((math.Log(x) - mu) / sigma)
}
