package main

import (
	"math"
	"testing"
)

// seq returns 1, 2, ..., n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		val, pct float64
	}{
		{11, 1, 100 * 1.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{400, 390, 97.5},
	} {
		xs := seq(tc.n)
		// Reverse, so the rule cannot depend on input order.
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		val, pct, err := tail(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if val != tc.val || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, val, pct, tc.val, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > val {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestTailNeedsMoreThanTenSamples(t *testing.T) {
	if _, _, err := tail(seq(10)); err == nil {
		t.Fatal("tail of 10 samples succeeded")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestOpSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for _, seed := range []uint64{0, 1, 2} {
		for i := 0; i < 1000; i++ {
			s := opSeed(seed, i)
			if seen[s] {
				t.Fatalf("seed collision at run seed %d, operation %d", seed, i)
			}
			seen[s] = true
		}
	}
}
