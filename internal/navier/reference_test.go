package navier

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/krylov"
	"repro/internal/mesh"
)

// This file keeps the solver's kernels in their pointwise form — every
// cell addressed as (i, j, k) through Field.Idx — as the reference the
// flat-index kernels must match bit for bit.

func at(f *field.Field, i, j, k int) float64     { return f.Data[f.Idx(i, j, k)] }
func set(f *field.Field, i, j, k int, v float64) { f.Data[f.Idx(i, j, k)] = v }

func (s *Solver) refFillGhosts(f *field.Field, kind bcKind) {
	p := s.Part
	nx, ny, nz := f.NX, f.NY, f.NZ
	if p.I0 == 0 {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				s.refWallGhost(f, kind, -1, j, k, 0, j, k)
			}
		}
	}
	if p.I1 == p.Grid.Mesh.NX {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				s.refWallGhost(f, kind, nx, j, k, nx-1, j, k)
			}
		}
	}
	if p.J0 == 0 {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				s.refWallGhost(f, kind, i, -1, k, i, 0, k)
			}
		}
	}
	if p.J1 == p.Grid.Mesh.NY {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				s.refWallGhost(f, kind, i, ny, k, i, ny-1, k)
			}
		}
	}
	if p.K0 == 0 {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				in := at(f, i, j, 0)
				switch kind {
				case bcVelU, bcVelV:
					set(f, i, j, -1, -in)
				case bcVelW:
					prof := s.inletProfile(p.I0+i, p.J0+j)
					set(f, i, j, -1, 2*prof-in)
				case bcPres:
					set(f, i, j, -1, in)
				}
			}
		}
	}
	if p.K1 == p.Grid.Mesh.NZ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				in := at(f, i, j, nz-1)
				switch kind {
				case bcVelU, bcVelV, bcVelW:
					set(f, i, j, nz, in)
				case bcPres:
					set(f, i, j, nz, -in)
				}
			}
		}
	}
}

func (s *Solver) refWallGhost(f *field.Field, kind bcKind, gi, gj, gk, ii, ij, ik int) {
	in := at(f, ii, ij, ik)
	switch kind {
	case bcVelU, bcVelV, bcVelW:
		set(f, gi, gj, gk, -in+2*s.wallVel)
	case bcPres:
		set(f, gi, gj, gk, in)
	}
}

func (s *Solver) refSyncVelocity(u, v, w *field.Field) {
	s.refFillGhosts(u, bcVelU)
	s.refFillGhosts(v, bcVelV)
	s.refFillGhosts(w, bcVelW)
	s.Comm.Exchange(u, v, w)
}

func (s *Solver) refStep() (StepStats, error) {
	nx, ny, nz := s.U.NX, s.U.NY, s.U.NZ
	dt, nu := s.P.Dt, s.P.Nu
	s.refSyncVelocity(s.U, s.V, s.W)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				au := s.refAdvect(s.U, i, j, k)
				av := s.refAdvect(s.V, i, j, k)
				aw := s.refAdvect(s.W, i, j, k)
				lu := s.refLaplace(s.U, i, j, k)
				lv := s.refLaplace(s.V, i, j, k)
				lw := s.refLaplace(s.W, i, j, k)
				set(s.us, i, j, k, at(s.U, i, j, k)+dt*(nu*lu-au))
				set(s.vs, i, j, k, at(s.V, i, j, k)+dt*(nu*lv-av))
				set(s.ws, i, j, k, at(s.W, i, j, k)+dt*(nu*lw-aw))
			}
		}
	}
	s.refSyncVelocity(s.us, s.vs, s.ws)
	n := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				s.rhs[n] = -(s.P.Rho / dt) * s.refDiv(s.us, s.vs, s.ws, i, j, k)
				n++
			}
		}
	}
	x := make([]float64, len(s.rhs))
	s.Pr.CopyInterior(x)
	cg := krylov.CG{A: s.refApplyNegLaplacian, Sum: s.Comm.AllSum, MaxIter: s.P.CGMaxIter, Tol: s.P.CGTol}
	res, err := cg.Solve(s.rhs, x)
	if err != nil {
		return StepStats{}, err
	}
	s.Pr.SetInterior(x)
	s.refFillGhosts(s.Pr, bcPres)
	s.Comm.Exchange(s.Pr)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				gx, gy, gz := s.refGrad(s.Pr, i, j, k)
				c := dt / s.P.Rho
				set(s.U, i, j, k, at(s.us, i, j, k)-c*gx)
				set(s.V, i, j, k, at(s.vs, i, j, k)-c*gy)
				set(s.W, i, j, k, at(s.ws, i, j, k)-c*gz)
			}
		}
	}
	s.refSyncVelocity(s.U, s.V, s.W)
	maxDiv, maxVel := 0.0, 0.0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if d := math.Abs(s.refDiv(s.U, s.V, s.W, i, j, k)); d > maxDiv {
					maxDiv = d
				}
				for _, v := range [3]float64{at(s.U, i, j, k), at(s.V, i, j, k), at(s.W, i, j, k)} {
					if a := math.Abs(v); a > maxVel {
						maxVel = a
					}
				}
			}
		}
	}
	return StepStats{
		CGIterations:  res.Iterations,
		CGResidual:    res.Residual,
		MaxDivergence: s.Comm.AllMax(maxDiv),
		MaxVelocity:   s.Comm.AllMax(maxVel),
	}, nil
}

func (s *Solver) refApplyNegLaplacian(dst, src []float64) float64 {
	s.tmp.SetInterior(src)
	s.refFillGhosts(s.tmp, bcPres)
	s.Comm.Exchange(s.tmp)
	n := 0
	for k := 0; k < s.tmp.NZ; k++ {
		for j := 0; j < s.tmp.NY; j++ {
			for i := 0; i < s.tmp.NX; i++ {
				dst[n] = -s.refLaplace(s.tmp, i, j, k)
				n++
			}
		}
	}
	return dot(src, dst)
}

// dot is the local inner product of a and b, summed from 0 in index
// order: the value the CG operator must return.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func (s *Solver) refLaplace(f *field.Field, i, j, k int) float64 {
	c := at(f, i, j, k)
	return (at(f, i-1, j, k)-2*c+at(f, i+1, j, k))/(s.hx*s.hx) +
		(at(f, i, j-1, k)-2*c+at(f, i, j+1, k))/(s.hy*s.hy) +
		(at(f, i, j, k-1)-2*c+at(f, i, j, k+1))/(s.hz*s.hz)
}

func (s *Solver) refGrad(f *field.Field, i, j, k int) (gx, gy, gz float64) {
	gx = (at(f, i+1, j, k) - at(f, i-1, j, k)) / (2 * s.hx)
	gy = (at(f, i, j+1, k) - at(f, i, j-1, k)) / (2 * s.hy)
	gz = (at(f, i, j, k+1) - at(f, i, j, k-1)) / (2 * s.hz)
	return
}

func (s *Solver) refDiv(u, v, w *field.Field, i, j, k int) float64 {
	return (at(u, i+1, j, k)-at(u, i-1, j, k))/(2*s.hx) +
		(at(v, i, j+1, k)-at(v, i, j-1, k))/(2*s.hy) +
		(at(w, i, j, k+1)-at(w, i, j, k-1))/(2*s.hz)
}

func (s *Solver) refAdvect(f *field.Field, i, j, k int) float64 {
	u, v, w := at(s.U, i, j, k), at(s.V, i, j, k), at(s.W, i, j, k)
	var dfx, dfy, dfz float64
	if u >= 0 {
		dfx = (at(f, i, j, k) - at(f, i-1, j, k)) / s.hx
	} else {
		dfx = (at(f, i+1, j, k) - at(f, i, j, k)) / s.hx
	}
	if v >= 0 {
		dfy = (at(f, i, j, k) - at(f, i, j-1, k)) / s.hy
	} else {
		dfy = (at(f, i, j+1, k) - at(f, i, j, k)) / s.hy
	}
	if w >= 0 {
		dfz = (at(f, i, j, k) - at(f, i, j, k-1)) / s.hz
	} else {
		dfz = (at(f, i, j, k+1) - at(f, i, j, k)) / s.hz
	}
	return u*dfx + v*dfy + w*dfz
}

func (s *Solver) refWallPressure() float64 {
	p, f := s.Part, s.Pr
	sum, count := 0.0, 0
	add := func(i, j, k int) { sum += at(f, i, j, k); count++ }
	if p.I0 == 0 {
		for k := 0; k < f.NZ; k++ {
			for j := 0; j < f.NY; j++ {
				add(0, j, k)
			}
		}
	}
	if p.I1 == p.Grid.Mesh.NX {
		for k := 0; k < f.NZ; k++ {
			for j := 0; j < f.NY; j++ {
				add(f.NX-1, j, k)
			}
		}
	}
	if p.J0 == 0 {
		for k := 0; k < f.NZ; k++ {
			for i := 0; i < f.NX; i++ {
				add(i, 0, k)
			}
		}
	}
	if p.J1 == p.Grid.Mesh.NY {
		for k := 0; k < f.NZ; k++ {
			for i := 0; i < f.NX; i++ {
				add(i, f.NY-1, k)
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// haloComm stands in for the neighbours of one partition of a split
// mesh: Exchange fills every partition-internal face's ghost layer with
// half the owned cell beside it, so reads across an internal face see a
// value no owned cell holds while the pressure operator stays SPD.
type haloComm struct {
	field.SeqComm
	part *mesh.Partition
}

func (c haloComm) Exchange(fields ...*field.Field) {
	p := c.part
	for _, f := range fields {
		nx, ny, nz := f.NX, f.NY, f.NZ
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				if p.I0 > 0 {
					set(f, -1, j, k, 0.5*at(f, 0, j, k))
				}
				if p.I1 < p.Grid.Mesh.NX {
					set(f, nx, j, k, 0.5*at(f, nx-1, j, k))
				}
			}
			for i := 0; i < nx; i++ {
				if p.J0 > 0 {
					set(f, i, -1, k, 0.5*at(f, i, 0, k))
				}
				if p.J1 < p.Grid.Mesh.NY {
					set(f, i, ny, k, 0.5*at(f, i, ny-1, k))
				}
			}
		}
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if p.K0 > 0 {
					set(f, i, j, -1, 0.5*at(f, i, j, 0))
				}
				if p.K1 < p.Grid.Mesh.NZ {
					set(f, i, j, nz, 0.5*at(f, i, j, nz-1))
				}
			}
		}
	}
}

// kernelParts returns the partitions the bit-exact tests run on: whole
// meshes 1 cell thick along each axis in turn, and all 27 parts of a
// 7×5×11 mesh split 3×3×3 — wall, inlet, outlet and interior parts,
// 1 cell thick in y along the first block row.
func kernelParts(t *testing.T) []*mesh.Partition {
	t.Helper()
	var parts []*mesh.Partition
	for _, d := range [][3]int{{1, 6, 7}, {5, 1, 7}, {5, 6, 1}, {3, 5, 9}} {
		m, err := mesh.NewMesh(d[0], d[1], d[2], 1e-3, 1e-3, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, mesh.Grid{Mesh: m, PX: 1, PY: 1, PZ: 1}.Part(0))
	}
	m, err := mesh.NewMesh(7, 5, 11, 1e-3, 1.5e-3, 0.8e-3)
	if err != nil {
		t.Fatal(err)
	}
	g := mesh.Grid{Mesh: m, PX: 3, PY: 3, PZ: 3}
	for r := 0; r < g.Parts(); r++ {
		parts = append(parts, g.Part(r))
	}
	return parts
}

func partName(p *mesh.Partition) string {
	nx, ny, nz := p.Dims()
	m := p.Grid.Mesh
	return fmt.Sprintf("%dx%dx%d_of_%dx%dx%d_rank%d", nx, ny, nz, m.NX, m.NY, m.NZ, p.Rank)
}

func sameBits(what string, a, b []float64) error {
	for m := range a {
		if math.Float64bits(a[m]) != math.Float64bits(b[m]) {
			return fmt.Errorf("%s[%d]: %v != %v", what, m, a[m], b[m])
		}
	}
	return nil
}

func kernelSolver(t *testing.T, p *mesh.Partition) *Solver {
	t.Helper()
	prm := DefaultParams()
	prm.Dt = 2e-4
	s, err := NewSolver(p, prm, haloComm{part: p})
	if err != nil {
		t.Fatal(err)
	}
	s.SetWallVelocity(3e-3)
	// A swirling start, so every part's flow moves both ways along
	// every axis and the upwind branches all run.
	for c, f := range []*field.Field{s.U, s.V, s.W} {
		for m := range f.Data {
			f.Data[m] = 0.02 * math.Sin(float64(3*m+c)+0.5)
		}
	}
	return s
}

func TestApplyNegLaplacianMatchesPointwise(t *testing.T) {
	for _, p := range kernelParts(t) {
		t.Run(partName(p), func(t *testing.T) {
			s, r := kernelSolver(t, p), kernelSolver(t, p)
			n := p.Cells()
			src, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
			for trial := 0; trial < 3; trial++ {
				for i := range src {
					src[i] = math.Sin(float64(7*i+trial)+0.3) * 1e2
				}
				gotDot := s.applyNegLaplacian(got, src)
				wantDot := r.refApplyNegLaplacian(want, src)
				if err := sameBits("dst", got, want); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if err := sameBits("ghosted src", s.tmp.Data, r.tmp.Data); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if math.Float64bits(gotDot) != math.Float64bits(wantDot) {
					t.Fatalf("trial %d: returned srcᵀ·dst %v, want %v", trial, gotDot, wantDot)
				}
			}
		})
	}
}

func TestStepMatchesPointwise(t *testing.T) {
	for _, p := range kernelParts(t) {
		t.Run(partName(p), func(t *testing.T) {
			s, r := kernelSolver(t, p), kernelSolver(t, p)
			for step := 0; step < 3; step++ {
				got, err := s.Step()
				if err != nil {
					t.Fatal(err)
				}
				want, err := r.refStep()
				if err != nil {
					t.Fatal(err)
				}
				if got.CGIterations != want.CGIterations {
					t.Fatalf("step %d: %d CG iterations, want %d", step, got.CGIterations, want.CGIterations)
				}
				if err := sameBits("stats", []float64{got.CGResidual, got.MaxDivergence, got.MaxVelocity},
					[]float64{want.CGResidual, want.MaxDivergence, want.MaxVelocity}); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, f := range []struct {
					name      string
					got, want *field.Field
				}{{"U", s.U, r.U}, {"V", s.V, r.V}, {"W", s.W, r.W}, {"Pr", s.Pr, r.Pr}, {"us", s.us, r.us}, {"vs", s.vs, r.vs}, {"ws", s.ws, r.ws}} {
					if err := sameBits(f.name, f.got.Data, f.want.Data); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if got.MaxVelocity == 0 || got.MaxDivergence == 0 {
					t.Fatalf("step %d: flow at rest (%+v), nothing compared", step, got)
				}
				if g, w := s.WallPressure(), r.refWallPressure(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("step %d: wall pressure %v, want %v", step, g, w)
				}
			}
		})
	}
}
