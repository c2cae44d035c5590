package main

import "testing"

// TestParseHeapSpec: heap sizes and factors must be finite and positive;
// NaN, negative, infinite and zero specs used to be accepted.
func TestParseHeapSpec(t *testing.T) {
	good := []struct {
		spec   string
		v      float64
		factor bool
	}{
		{"512", 512, false},
		{"37.5", 37.5, false},
		{"2x", 2, true},
		{"1.25x", 1.25, true},
	}
	for _, tc := range good {
		v, factor, err := parseHeapSpec(tc.spec)
		if err != nil || v != tc.v || factor != tc.factor {
			t.Errorf("parseHeapSpec(%q) = %v, %v, %v; want %v, %v", tc.spec, v, factor, err, tc.v, tc.factor)
		}
	}
	for _, spec := range []string{"NaN", "-5", "0", "Inf", "-Inf", "NaNx", "Infx", "0x", "-2x", "", "x", "2xx", "abc"} {
		if v, _, err := parseHeapSpec(spec); err == nil {
			t.Errorf("parseHeapSpec(%q) = %v, want an error", spec, v)
		}
	}
}
