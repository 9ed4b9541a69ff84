package core

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// TestClassifyInPlaceAllocationFree: given room for the medians, a
// classification touches nothing but the caller's two buffers.
func TestClassifyInPlaceAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 100)
	for i := range src {
		src[i] = float64(i)*1e-5 + rng.Float64()*1e-4
	}
	owds, medians := make([]float64, len(src)), make([]float64, 0, 10)
	allocs := testing.AllocsPerRun(100, func() {
		copy(owds, src)
		if kind, m := ClassifyInPlace(owds, medians, TrendConfig{}); kind != TypeIncreasing || m.Gamma != 10 {
			t.Fatalf("classified %v over %d groups, want I over 10", kind, m.Gamma)
		}
	})
	if allocs != 0 {
		t.Fatalf("ClassifyInPlace allocates %.1f objects per stream, want 0", allocs)
	}
}

// TestMedianGroupsMatchStatsMedian: sorting each group where it lies
// yields bit for bit the medians of the copying reference, for odd,
// even and single-sample groups alike.
func TestMedianGroupsMatchStatsMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 130; n++ {
		owds := make([]float64, n)
		for i := range owds {
			owds[i] = rng.NormFloat64()
		}
		got := MedianGroups(owds, 0)
		// Recompute the partition the way MedianGroups documents it.
		gamma := len(got)
		start := 0
		for g := 0; g < gamma; g++ {
			size := n / gamma
			if g < n%gamma {
				size++
			}
			if want := stats.Median(owds[start : start+size]); got[g] != want {
				t.Fatalf("n=%d group %d (size %d): median %v, want %v", n, g, size, got[g], want)
			}
			start += size
		}
	}
}
