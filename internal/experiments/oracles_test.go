package experiments

// The oracles of the figure-shape tests in experiments_test.go, with
// their own tests.

import (
	"math"
	"testing"

	"repro/internal/units"
)

// relDiff returns (a−b)/b: the relative overhead of a against b.
func relDiff(a, b units.Seconds) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return float64(a-b) / float64(b)
}

// summary holds basic descriptive statistics.
type summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// summarize computes descriptive statistics of vals.
func summarize(vals []float64) summary {
	s := summary{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	if s.N == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	varsum := 0.0
	for _, v := range vals {
		d := v - s.Mean
		varsum += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(varsum / float64(s.N-1))
	}
	return s
}

// monotone reports whether vals never increase (dir < 0) or never
// decrease (dir > 0), within a relative slack tolerance.
func monotone(vals []float64, dir int, slack float64) bool {
	for i := 1; i < len(vals); i++ {
		prev, cur := vals[i-1], vals[i]
		switch {
		case dir > 0:
			if cur < prev*(1-slack) {
				return false
			}
		case dir < 0:
			if cur > prev*(1+slack) {
				return false
			}
		}
	}
	return true
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("relDiff = %v", got)
	}
	if !math.IsInf(relDiff(1, 0), 1) {
		t.Fatal("relDiff with zero base should be +Inf")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{2, 4, 6})
	if s.N != 3 || s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
	empty := summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

func TestMonotone(t *testing.T) {
	inc := []float64{1, 2, 3, 3, 4}
	dec := []float64{4, 3, 2, 2, 1}
	if !monotone(inc, 1, 0) {
		t.Fatal("increasing not recognized")
	}
	if monotone(inc, -1, 0) {
		t.Fatal("increasing accepted as decreasing")
	}
	if !monotone(dec, -1, 0) {
		t.Fatal("decreasing not recognized")
	}
	// Slack tolerates small violations.
	wiggle := []float64{1, 2, 1.99, 3}
	if monotone(wiggle, 1, 0) {
		t.Fatal("wiggle accepted without slack")
	}
	if !monotone(wiggle, 1, 0.01) {
		t.Fatal("wiggle rejected with slack")
	}
}
