// Package metrics provides the statistics the evaluation reports:
// speedups, parallel efficiencies, and series summaries.
package metrics

import (
	"math"

	"repro/internal/units"
)

// Point is one (x, t) sample of a scaling series: x is the swept
// parameter (nodes, ranks), t the measured time.
type Point struct {
	X int
	T units.Seconds
}

// Series is one labelled curve of a figure.
type Series struct {
	// Label names the curve, e.g. "Singularity self-contained".
	Label string
	// Points are the samples in sweep order.
	Points []Point
}

// Speedup converts the series to speedups relative to its first point
// (the paper's Fig. 3 normalization: each variant against its own
// smallest-node run).
func (s *Series) Speedup() []float64 {
	out := make([]float64, len(s.Points))
	if len(s.Points) == 0 {
		return out
	}
	base := s.Points[0].T
	for i, p := range s.Points {
		if p.T > 0 {
			out[i] = float64(base) / float64(p.T)
		}
	}
	return out
}

// Efficiency returns parallel efficiency per point: speedup divided by
// the ideal ratio X/X₀.
func (s *Series) Efficiency() []float64 {
	sp := s.Speedup()
	out := make([]float64, len(sp))
	if len(s.Points) == 0 {
		return out
	}
	x0 := float64(s.Points[0].X)
	for i := range sp {
		ideal := float64(s.Points[i].X) / x0
		if ideal > 0 {
			out[i] = sp[i] / ideal
		}
	}
	return out
}

// RelDiff returns (a−b)/b: the relative overhead of a against b.
func RelDiff(a, b units.Seconds) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return float64(a-b) / float64(b)
}

// Summary holds basic descriptive statistics.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes descriptive statistics of vals.
func Summarize(vals []float64) Summary {
	s := Summary{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
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

// Monotone reports whether vals never increase (dir < 0) or never
// decrease (dir > 0), within a relative slack tolerance.
func Monotone(vals []float64, dir int, slack float64) bool {
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
