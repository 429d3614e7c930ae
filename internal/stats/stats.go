// Package stats provides the small statistics toolkit used across the
// SpotLight reproduction: clamping, top-n selection, and the normal and
// lognormal CDFs that power the simulator's parametric spot-market bid
// curve.
package stats

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
