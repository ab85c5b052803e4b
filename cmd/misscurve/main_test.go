package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags: -points 1 used to sweep a NaN size and -points -1 to
// panic in make; both, and every other sweep that cannot be laid out, are
// refused by flag name.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name         string
		minMB, maxMB float64
		points, n    int
		wantErr      string // substring of the error; "" = accepted
	}{
		{"defaults", 0.25, 16, 10, 1 << 20, ""},
		{"two points", 1, 8, 2, 1, ""},
		{"one point", 0.25, 16, 1, 1 << 20, "-points 1"},
		{"no points", 0.25, 16, 0, 1 << 20, "-points 0"},
		{"negative points", 0.25, 16, -1, 1 << 20, "-points -1"},
		{"zero min", 0, 16, 10, 1 << 20, "-min 0"},
		{"negative min", -1, 16, 10, 1 << 20, "-min -1"},
		{"NaN min", math.NaN(), 16, 10, 1 << 20, "-min NaN"},
		{"negative max", 1, -4, 10, 1 << 20, "-max -4"},
		{"reversed", 8, 1, 10, 1 << 20, "-max 1"},
		{"min equals max", 2, 2, 10, 1 << 20, "-max 2"},
		{"NaN max", 1, math.NaN(), 10, 1 << 20, "-max NaN"},
		{"empty trace", 0.25, 16, 10, 0, "-n 0"},
		{"negative trace", 0.25, 16, 10, -5, "-n -5"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.minMB, tc.maxMB, tc.points, tc.n)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
