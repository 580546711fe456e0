package report

import "testing"

// TestQuantileMatchesPython pins Quantile to Python's
// statistics.quantiles(xs, n=4), the method the benchmark's acceptance
// spreads are computed with.
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := Quantile(xs, tc.p); got != tc.want {
			t.Errorf("Quantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := Median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("Median = %g, want 2.5", got)
	}
}
