package solid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/mesh"
)

// This file keeps Step in its pointwise form — every cell addressed as
// (i, j, k) through Field.Idx, fresh next fields every step — as the
// reference the flat-index Step must match bit for bit.

func at(f *field.Field, i, j, k int) float64     { return f.Data[f.Idx(i, j, k)] }
func set(f *field.Field, i, j, k int, v float64) { f.Data[f.Idx(i, j, k)] = v }

func (s *Solver) refFillGhosts(f *field.Field) {
	p := s.Part
	nx, ny, nz := f.NX, f.NY, f.NZ
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			if p.I0 == 0 {
				set(f, -1, j, k, at(f, 0, j, k))
			}
			if p.I1 == p.Grid.Mesh.NX {
				set(f, nx, j, k, at(f, nx-1, j, k))
			}
		}
		for i := 0; i < nx; i++ {
			if p.J0 == 0 {
				set(f, i, -1, k, at(f, i, 0, k))
			}
			if p.J1 == p.Grid.Mesh.NY {
				set(f, i, ny, k, at(f, i, ny-1, k))
			}
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if p.K0 == 0 {
				set(f, i, j, -1, -at(f, i, j, 0))
			}
			if p.K1 == p.Grid.Mesh.NZ {
				set(f, i, j, nz, -at(f, i, j, nz-1))
			}
		}
	}
}

func (s *Solver) refStep() StepStats {
	lambda, mu := s.P.Lame()
	dt, rho := s.P.Dt, s.P.Rho
	nx, ny, nz := s.UX.NX, s.UX.NY, s.UX.NZ
	for _, f := range []*field.Field{s.UX, s.UY, s.UZ} {
		s.refFillGhosts(f)
	}
	s.Comm.Exchange(s.UX, s.UY, s.UZ)
	nextX, nextY, nextZ := field.New(s.Part), field.New(s.Part), field.New(s.Part)
	loadScale := s.traction / (rho * s.hx)
	maxDisp, sumRadVel, radCount := 0.0, 0.0, 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				ax := (mu*s.refLaplace(s.UX, i, j, k) + (lambda+mu)*((s.refDiv(i+1, j, k)-s.refDiv(i-1, j, k))/(2*s.hx))) / rho
				ay := (mu*s.refLaplace(s.UY, i, j, k) + (lambda+mu)*((s.refDiv(i, j+1, k)-s.refDiv(i, j-1, k))/(2*s.hy))) / rho
				az := (mu*s.refLaplace(s.UZ, i, j, k) + (lambda+mu)*((s.refDiv(i, j, k+1)-s.refDiv(i, j, k-1))/(2*s.hz))) / rho
				if s.Part.I0+i == 0 {
					ax -= loadScale
				}
				if s.Part.I0+i == s.Part.Grid.Mesh.NX-1 {
					ax += loadScale
				}
				if s.Part.J0+j == 0 {
					ay -= loadScale
				}
				if s.Part.J0+j == s.Part.Grid.Mesh.NY-1 {
					ay += loadScale
				}
				for _, c := range []struct {
					acc             float64
					cur, prev, next *field.Field
				}{{ax, s.UX, s.prevX, nextX}, {ay, s.UY, s.prevY, nextY}, {az, s.UZ, s.prevZ, nextZ}} {
					cur, old := at(c.cur, i, j, k), at(c.prev, i, j, k)
					vel := (cur - old) / dt
					set(c.next, i, j, k, 2*cur-old+dt*dt*(c.acc-s.P.Damping*vel))
				}
				dx, dy, dz := at(s.UX, i, j, k), at(s.UY, i, j, k), at(s.UZ, i, j, k)
				if d := math.Sqrt(dx*dx + dy*dy + dz*dz); d > maxDisp {
					maxDisp = d
				}
				if s.Part.I0+i == 0 {
					sumRadVel -= (at(nextX, i, j, k) - at(s.prevX, i, j, k)) / (2 * dt)
					radCount++
				}
				if s.Part.I0+i == s.Part.Grid.Mesh.NX-1 {
					sumRadVel += (at(nextX, i, j, k) - at(s.prevX, i, j, k)) / (2 * dt)
					radCount++
				}
			}
		}
	}
	s.prevX, s.UX = s.UX, nextX
	s.prevY, s.UY = s.UY, nextY
	s.prevZ, s.UZ = s.UZ, nextZ
	globalCount := s.Comm.AllSum(float64(radCount))
	meanRad := 0.0
	if globalCount > 0 {
		meanRad = s.Comm.AllSum(sumRadVel) / globalCount
	}
	return StepStats{MaxDisplacement: s.Comm.AllMax(maxDisp), MeanRadialVelocity: meanRad}
}

// refDiv is ∇·u at (i, j, k), each read clamped to the ghosted range.
func (s *Solver) refDiv(i, j, k int) float64 {
	c := func(f *field.Field, i, j, k int) float64 {
		return at(f, min(max(i, -1), f.NX), min(max(j, -1), f.NY), min(max(k, -1), f.NZ))
	}
	return (c(s.UX, i+1, j, k)-c(s.UX, i-1, j, k))/(2*s.hx) +
		(c(s.UY, i, j+1, k)-c(s.UY, i, j-1, k))/(2*s.hy) +
		(c(s.UZ, i, j, k+1)-c(s.UZ, i, j, k-1))/(2*s.hz)
}

func (s *Solver) refLaplace(f *field.Field, i, j, k int) float64 {
	c := at(f, i, j, k)
	return (at(f, i-1, j, k)-2*c+at(f, i+1, j, k))/(s.hx*s.hx) +
		(at(f, i, j-1, k)-2*c+at(f, i, j+1, k))/(s.hy*s.hy) +
		(at(f, i, j, k-1)-2*c+at(f, i, j, k+1))/(s.hz*s.hz)
}

// haloComm stands in for the neighbours of one partition of a split
// mesh: Exchange fills every partition-internal face's ghost layer with
// half the owned cell beside it, a value no owned cell holds.
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

// kernelParts returns the partitions the Step tests run on: whole
// meshes 1 cell thick along each axis in turn, and all 27 parts of a
// 7×5×11 mesh split 3×3×3 — wall, inlet, outlet and interior parts,
// 1 cell thick in y along the first block row.
func kernelParts(t *testing.T) []*mesh.Partition {
	t.Helper()
	var parts []*mesh.Partition
	for _, d := range [][3]int{{1, 6, 7}, {5, 1, 7}, {5, 6, 1}, {6, 6, 8}} {
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

// eachEdge visits the edge and corner ghosts of f: the cells with two
// or three coordinates in the ghost layer, on no face layer.
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

// kernelSolver returns a loaded wall solver on p whose displacement and
// velocity start non-zero in every owned and face-ghost cell; the edge
// ghosts stay 0, as in a field fresh from field.New.
func kernelSolver(t *testing.T, p *mesh.Partition) *Solver {
	t.Helper()
	s, err := NewSolver(p, DefaultParams(), haloComm{part: p})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTraction(1000)
	for c, f := range []*field.Field{s.UX, s.UY, s.UZ, s.prevX, s.prevY, s.prevZ} {
		for m := range f.Data {
			f.Data[m] = 1e-6 * math.Sin(float64(5*m+c)+0.5)
		}
		eachEdge(f, func(m int) { f.Data[m] = 0 })
	}
	return s
}

// sameState reports the first bit that differs between two solvers'
// fields, ghosts included.
func sameState(a, b *Solver) error {
	for _, f := range []struct {
		name string
		a, b *field.Field
	}{{"UX", a.UX, b.UX}, {"UY", a.UY, b.UY}, {"UZ", a.UZ, b.UZ}, {"prevX", a.prevX, b.prevX}, {"prevY", a.prevY, b.prevY}, {"prevZ", a.prevZ, b.prevZ}} {
		for m := range f.a.Data {
			if math.Float64bits(f.a.Data[m]) != math.Float64bits(f.b.Data[m]) {
				return fmt.Errorf("%s[%d]: %v != %v", f.name, m, f.a.Data[m], f.b.Data[m])
			}
		}
	}
	return nil
}

func sameStats(got, want StepStats) bool {
	return math.Float64bits(got.MaxDisplacement) == math.Float64bits(want.MaxDisplacement) &&
		math.Float64bits(got.MeanRadialVelocity) == math.Float64bits(want.MeanRadialVelocity)
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
				if want := r.refStep(); !sameStats(got, want) {
					t.Fatalf("step %d: %+v, want %+v", step, got, want)
				}
				if err := sameState(s, r); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestStepIgnoresEdgeGhosts poisons the edge and corner ghosts — the
// ghost cells on no face layer, which no halo exchange or boundary
// condition writes but the mixed derivative's clamped divergence reads
// — before every step, and requires every bit of the result to match a
// clean solver's.
func TestStepIgnoresEdgeGhosts(t *testing.T) {
	for _, p := range kernelParts(t) {
		t.Run(partName(p), func(t *testing.T) {
			clean, poisoned := kernelSolver(t, p), kernelSolver(t, p)
			for step := 0; step < 3; step++ {
				for _, f := range []*field.Field{poisoned.UX, poisoned.UY, poisoned.UZ, poisoned.prevX, poisoned.prevY, poisoned.prevZ} {
					eachEdge(f, func(m int) { f.Data[m] = 1e300 })
				}
				want, err := clean.Step()
				if err != nil {
					t.Fatal(err)
				}
				got, err := poisoned.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !sameStats(got, want) {
					t.Fatalf("step %d: %+v, want %+v", step, got, want)
				}
				if err := sameState(poisoned, clean); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}
