package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p, want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"odd median", []float64{5, 1, 3}, 0.5, 3},
		{"even median interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"p0 is the minimum", []float64{9, 2, 5}, 0, 2},
		{"p100 is the maximum", []float64{9, 2, 5}, 1, 9},
		{"p90 of ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{"p25 of five", []float64{10, 20, 30, 40, 50}, 0.25, 20},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); !near(got, c.want) {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.samples, c.p, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	percentile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

func TestTickPercentile(t *testing.T) {
	// Four samples on tick 10 and four on tick 11: the median sits exactly
	// on the boundary between the two bins.
	s := []float64{10, 10, 10, 10, 11, 11, 11, 11}
	if got := tickPercentile(s, 0.5, 1); !near(got, 11) {
		t.Errorf("median of two equal bins = %v, want 11", got)
	}
	// All samples on one tick: the quantile moves through the bin.
	one := []float64{5, 5, 5, 5}
	if got := tickPercentile(one, 0.25, 1); !near(got, 5.25) {
		t.Errorf("p25 inside a single bin = %v, want 5.25", got)
	}
	if got := tickPercentile(one, 1, 1); !near(got, 6) {
		t.Errorf("p100 inside a single bin = %v, want 6", got)
	}
	if got := tickPercentile(nil, 0.5, 1); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(values, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 2}, 2, 2, 2},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.values)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestHardSetup(t *testing.T) {
	// Identical repetitions: each step takes the quickest repetition.
	reps := []*rep{{setupPhases: []float64{1, 5, 1}}, {setupPhases: []float64{3, 1, 1}}}
	if got := hardSetup(reps); !near(got, 3) {
		t.Errorf("hardSetup = %v, want 3", got)
	}
}
