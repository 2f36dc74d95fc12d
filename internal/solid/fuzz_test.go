package solid

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/field"
	"repro/internal/mesh"
)

// span maps a fuzzed byte onto 1..n, keeping 1..n themselves, so a
// corpus entry reads as the sizes it encodes.
func span(v uint8, n int) int { return 1 + (int(v)+n-1)%n }

// fuzzSolver returns a solver on p under a random traction whose
// displacement fields start random in every owned and face-ghost cell;
// the edge ghosts stay 0, as in a field fresh from field.New. Equal
// seeds give equal solvers.
func fuzzSolver(t *testing.T, p *mesh.Partition, seed uint64) *Solver {
	t.Helper()
	s, err := NewSolver(p, DefaultParams(), haloComm{part: p})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed))
	s.SetTraction(2000 * (2*rng.Float64() - 1))
	for _, f := range []*field.Field{s.UX, s.UY, s.UZ, s.prevX, s.prevY, s.prevZ} {
		for m := range f.Data {
			f.Data[m] = 1e-6 * (2*rng.Float64() - 1)
		}
		eachEdge(f, func(m int) { f.Data[m] = 0 })
	}
	return s
}

// FuzzStepMatchesPointwise steps one part of a fuzzed mesh and block
// split with the flat-index Step and with the pointwise reference, from
// equal random fields, and requires every cell of every field, ghosts
// included, and both StepStats to match bit for bit after every step.
// Before each step the edge ghosts of every field of the flat solver
// are poisoned with NaN: the reference reads them as 0 through its
// clamped divergence, so a Step that reads one without clearing it
// first spreads a NaN into a cell that must hold a number.
//
// The input decodes to a mesh of 1–9 cells per axis, a split of 1–3
// blocks per axis (at most one per cell), a part index, a seed for the
// fields and the traction, and 1–3 steps.
func FuzzStepMatchesPointwise(f *testing.F) {
	f.Fuzz(func(t *testing.T, nx, ny, nz, px, py, pz, part uint8, seed uint64, steps uint8) {
		dims := [3]int{span(nx, 9), span(ny, 9), span(nz, 9)}
		m, err := mesh.NewMesh(dims[0], dims[1], dims[2], 1e-3, 1.5e-3, 0.8e-3)
		if err != nil {
			t.Fatal(err)
		}
		g := mesh.Grid{Mesh: m, PX: min(span(px, 3), dims[0]), PY: min(span(py, 3), dims[1]), PZ: min(span(pz, 3), dims[2])}
		p := g.Part(int(part) % g.Parts())
		s, r := fuzzSolver(t, p, seed), fuzzSolver(t, p, seed)
		for step := 0; step < span(steps, 3); step++ {
			for _, f := range []*field.Field{s.UX, s.UY, s.UZ, s.prevX, s.prevY, s.prevZ, s.nextX, s.nextY, s.nextZ} {
				eachEdge(f, func(m int) { f.Data[m] = math.NaN() })
			}
			got, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if want := r.refStep(); !sameStats(got, want) {
				t.Fatalf("%s step %d: %+v, want %+v", partName(p), step, got, want)
			}
			if err := sameState(s, r); err != nil {
				t.Fatalf("%s step %d: %v", partName(p), step, err)
			}
		}
	})
}
