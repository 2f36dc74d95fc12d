package report

import "repro/internal/units"

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
