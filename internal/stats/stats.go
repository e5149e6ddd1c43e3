// Package stats provides the small statistical toolkit used by the
// experiment drivers: the mean of a series, and the spike trimming the
// paper applies to sensor readings.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TrimTop returns a copy of xs with the top frac fraction (by value) of
// samples removed. The paper excludes the 0.5% highest sensor samples to
// suppress read spikes (§5.4.1); TrimTop(readings, 0.005) reproduces that.
func TrimTop(xs []float64, frac float64) []float64 {
	if len(xs) == 0 || frac <= 0 {
		return append([]float64(nil), xs...)
	}
	n := int(math.Ceil(float64(len(xs)) * frac))
	if n >= len(xs) {
		return nil
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[:len(cp)-n]
}
