package main

import "testing"

// TestMinSamplesLeavesTenBeyond checks the percentile choice: a sample
// supports p once at least ten values lie beyond it, so a timed phase of
// minSamplesFor(90) requests supports p90 and nothing higher.
func TestMinSamplesLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want int
	}{{50, 20}, {90, 100}, {99, 1000}, {99.9, 10000}} {
		if got := minSamplesFor(tc.p); got != tc.want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if n := minSamplesFor(90); minSamplesFor(99) <= n {
		t.Errorf("a sample of %d supports p99 too", n)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}
