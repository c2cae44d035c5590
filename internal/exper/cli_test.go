package exper

import (
	"reflect"
	"testing"
)

// TestParseFactors: heap factors must be finite and positive. NaN and Inf
// used to parse, and a NaN factor then failed deep inside job hashing with a
// misleading "no completed cells" report.
func TestParseFactors(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"", nil},
		{"1", []float64{1}},
		{"1.5, 2,3", []float64{1.5, 2, 3}},
		{"1e-3", []float64{0.001}},
	}
	for _, tc := range good {
		got, err := ParseFactors(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFactors(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"NaN", "Inf", "+Inf", "-Inf", "NaN,Inf", "2,NaN", "0", "-1", "1,,2", "x", "1e400"} {
		if got, err := ParseFactors(in); err == nil {
			t.Errorf("ParseFactors(%q) = %v, want an error", in, got)
		}
	}
}
