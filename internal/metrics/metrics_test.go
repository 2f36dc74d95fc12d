package metrics

import (
	"math"
	"testing"

	"repro/internal/units"
)

func series() Series {
	return Series{
		Label: "test",
		Points: []Point{
			{X: 4, T: 16 * units.Second},
			{X: 8, T: 8 * units.Second},
			{X: 16, T: 5 * units.Second},
		},
	}
}

func TestSpeedup(t *testing.T) {
	s := series()
	sp := s.Speedup()
	want := []float64{1, 2, 3.2}
	for i := range want {
		if math.Abs(sp[i]-want[i]) > 1e-12 {
			t.Fatalf("speedup = %v, want %v", sp, want)
		}
	}
}

func TestEfficiency(t *testing.T) {
	s := series()
	eff := s.Efficiency()
	want := []float64{1, 1, 0.8}
	for i := range want {
		if math.Abs(eff[i]-want[i]) > 1e-12 {
			t.Fatalf("efficiency = %v, want %v", eff, want)
		}
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if len(s.Speedup()) != 0 || len(s.Efficiency()) != 0 {
		t.Fatal("empty series should give empty stats")
	}
}

func TestRelDiff(t *testing.T) {
	if got := RelDiff(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelDiff = %v", got)
	}
	if !math.IsInf(RelDiff(1, 0), 1) {
		t.Fatal("RelDiff with zero base should be +Inf")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if s.N != 3 || s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

func TestMonotone(t *testing.T) {
	inc := []float64{1, 2, 3, 3, 4}
	dec := []float64{4, 3, 2, 2, 1}
	if !Monotone(inc, 1, 0) {
		t.Fatal("increasing not recognized")
	}
	if Monotone(inc, -1, 0) {
		t.Fatal("increasing accepted as decreasing")
	}
	if !Monotone(dec, -1, 0) {
		t.Fatal("decreasing not recognized")
	}
	// Slack tolerates small violations.
	wiggle := []float64{1, 2, 1.99, 3}
	if Monotone(wiggle, 1, 0) {
		t.Fatal("wiggle accepted without slack")
	}
	if !Monotone(wiggle, 1, 0.01) {
		t.Fatal("wiggle rejected with slack")
	}
}
