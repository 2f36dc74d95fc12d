package navier

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/field"
	"repro/internal/mesh"
)

// span maps a fuzzed byte onto 1..n, keeping 1..n themselves, so a
// corpus entry reads as the sizes it encodes.
func span(v uint8, n int) int { return 1 + (int(v)+n-1)%n }

// eachEdge visits the edge and corner ghosts of f: the ghost cells on
// no face layer, which no stencil, boundary condition or halo exchange
// may read or write.
func eachEdge(f *field.Field, visit func(m int)) {
	for k := -1; k <= f.NZ; k++ {
		for j := -1; j <= f.NY; j++ {
			for i := -1; i <= f.NX; i++ {
				out := 0
				for _, c := range [3][2]int{{i, f.NX}, {j, f.NY}, {k, f.NZ}} {
					if c[0] < 0 || c[0] == c[1] {
						out++
					}
				}
				if out >= 2 {
					visit(f.Idx(i, j, k))
				}
			}
		}
	}
}

// fuzzSolver returns a solver on p whose velocity and pressure start
// random in every cell, face ghosts included, with a random wall
// velocity; equal seeds give equal solvers.
func fuzzSolver(t *testing.T, p *mesh.Partition, seed uint64) *Solver {
	t.Helper()
	prm := DefaultParams()
	prm.Dt = 2e-4
	s, err := NewSolver(p, prm, haloComm{part: p})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed))
	s.SetWallVelocity(0.01 * (2*rng.Float64() - 1))
	for _, f := range []*field.Field{s.U, s.V, s.W, s.Pr} {
		for m := range f.Data {
			f.Data[m] = 0.02 * (2*rng.Float64() - 1)
		}
	}
	return s
}

// FuzzStepMatchesPointwise steps one part of a fuzzed mesh and block
// split with the flat-index kernels and with the pointwise reference,
// from equal random fields, and requires every cell of every field,
// ghosts included, to match bit for bit after every step. Before each
// step the edge ghosts of every field are poisoned with NaN: a kernel
// that reads one spreads a NaN into a cell that must hold a number.
//
// The input decodes to a mesh of 1–9 cells per axis, a split of 1–3
// blocks per axis (at most one per cell), a part index, a field seed
// and 1–3 steps.
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
		names := []string{"U", "V", "W", "Pr", "us", "vs", "ws", "tmp"}
		fields := func(v *Solver) []*field.Field {
			return []*field.Field{v.U, v.V, v.W, v.Pr, v.us, v.vs, v.ws, v.tmp}
		}
		edges := 0
		eachEdge(s.U, func(int) { edges++ })
		for step := 0; step < span(steps, 3); step++ {
			for _, v := range []*Solver{s, r} {
				for _, f := range fields(v) {
					eachEdge(f, func(m int) { f.Data[m] = math.NaN() })
				}
			}
			got, err := s.Step()
			want, rerr := r.refStep()
			if fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("%s step %d: error %v, reference %v", partName(p), step, err, rerr)
			}
			if err != nil {
				return
			}
			if got.CGIterations != want.CGIterations {
				t.Fatalf("%s step %d: %d CG iterations, want %d", partName(p), step, got.CGIterations, want.CGIterations)
			}
			if err := sameBits("stats", []float64{got.CGResidual, got.MaxDivergence, got.MaxVelocity, s.WallPressure()},
				[]float64{want.CGResidual, want.MaxDivergence, want.MaxVelocity, r.refWallPressure()}); err != nil {
				t.Fatalf("%s step %d: %v", partName(p), step, err)
			}
			for i, f := range fields(s) {
				if err := sameBits(names[i], f.Data, fields(r)[i].Data); err != nil {
					t.Fatalf("%s step %d: %v", partName(p), step, err)
				}
				nans := 0
				for _, v := range f.Data {
					if math.IsNaN(v) {
						nans++
					}
				}
				if nans != edges {
					t.Fatalf("%s step %d: %s holds %d NaNs, not its %d edge ghosts", partName(p), step, names[i], nans, edges)
				}
			}
		}
	})
}
