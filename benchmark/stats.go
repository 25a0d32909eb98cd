package main

import (
	"fmt"
	"math"

	"github.com/interweaving/komp/internal/stats"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers and
// does not repeat from run to run.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs. It refuses a
// percentile that has fewer than minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if beyond := int(math.Floor(float64(len(xs))*(1-p) + 1e-9)); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, len(xs), beyond, minBeyond)
	}
	return stats.Percentile(xs, p*100), nil
}

// tailP is the percentile the tail metric reports for n samples: p99
// when the run is long enough to resolve it, otherwise the highest
// percentile that still has minBeyond samples beyond it, and never
// below the median.
func tailP(n int) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	return math.Min(0.99, 1-float64(minBeyond)/float64(n))
}

// tail returns the tail percentile of xs and which percentile that was.
func tail(xs []float64) (v, p float64) {
	p = tailP(len(xs))
	if v, err := percentile(xs, p); err == nil {
		return v, p
	}
	return median(xs), 0.5
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// spread is (max-min)/median: how far the per-segment values of one run
// lie apart. compare uses it to call a difference unresolved.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (stats.Max(xs) - stats.Min(xs)) / math.Abs(m)
}
