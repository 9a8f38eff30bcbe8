package main

import (
	"math"
	"testing"
)

func TestSummarizeReportsP99OnlyWithTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		hasP99 bool
	}{
		{300, false}, // today's 300-request runs: 3 samples beyond the p99
		{999, false}, // 9 beyond
		{1000, true}, // 10 beyond
		{5000, true},
	} {
		vals := make([]float64, tc.n)
		for i := range vals {
			vals[i] = float64(tc.n - i) // descending: summarize must sort a copy
		}
		s := summarize(vals, minTail)
		if s.N != tc.n || s.HasP99 != tc.hasP99 {
			t.Errorf("n=%d: got N=%d HasP99=%v, want HasP99=%v", tc.n, s.N, s.HasP99, tc.hasP99)
		}
		if want := math.Ceil(0.99 * float64(tc.n)); s.P99 != want {
			t.Errorf("n=%d: p99 %v, want nearest rank %v", tc.n, s.P99, want)
		}
		if vals[0] != float64(tc.n) {
			t.Errorf("n=%d: summarize reordered its input", tc.n)
		}
	}
}

func TestWindowedTakesTheMedianWindow(t *testing.T) {
	// Three windows of 1000 samples; the middle one holds a stall whose
	// tail would set a whole-run p99 on its own.
	var vals []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0 + float64(i%10)/100
			if w == 1 && i >= 960 {
				v = 500
			}
			vals = append(vals, v)
		}
	}
	s := windowed(vals, minTail)
	if !s.HasP99 || s.N != 3000 {
		t.Fatalf("got %+v", s)
	}
	if s.P99 > 2 {
		t.Errorf("windowed p99 %v: one stalled window set the result", s.P99)
	}
	if whole := summarize(vals, minTail); whole.P99 != 500 {
		t.Errorf("whole-run p99 %v, want the stall (500)", whole.P99)
	}
	// Too few samples for two windows: falls back to the whole set.
	if s := windowed(vals[:1500], minTail); s != summarize(vals[:1500], minTail) {
		t.Errorf("short input: %+v != whole summary", s)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python: statistics.quantiles(v, n=4) and
	// statistics.median(v).
	for _, tc := range []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5}, // Python extrapolates with two values
	} {
		q1, med, q3 := quartiles(tc.vals)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vals, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}
