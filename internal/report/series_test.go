package report

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
