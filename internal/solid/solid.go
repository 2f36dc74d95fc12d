// Package solid implements the structural half of the FSI case: dynamic
// linear elasticity of the artery wall, advanced with an explicit
// central-difference scheme (lumped mass), over the same partitioned
// grid machinery as the fluid code. In the paper's FSI runs this is the
// "second code instance" coupled to the fluid.
package solid

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/mesh"
)

// Per-cell work of one explicit structural step (Navier–Cauchy stencil
// with the mixed divergence derivatives), feeding Comm.Charge here and
// the alya package's solid step program, ModeModel's data form of Step.
const (
	// StepFlopsPerCell covers the three-component elasticity update.
	StepFlopsPerCell = 220
	// StepBytesPerCell is the matching memory traffic.
	StepBytesPerCell = 310
)

// Params are the material and numerical parameters of the wall model.
type Params struct {
	// E is Young's modulus (Pa). Arterial wall ≈ 1e5–1e6.
	E float64 `json:"E"`
	// NuP is Poisson's ratio.
	NuP float64 `json:"NuP"`
	// Rho is the density (kg/m³).
	Rho float64 `json:"Rho"`
	// Dt is the time step (s); explicit stability requires
	// dt < h/c with c = sqrt(E/ρ) the dilatational wave speed.
	Dt float64 `json:"Dt"`
	// Damping is a mass-proportional (Rayleigh) damping coefficient.
	Damping float64 `json:"Damping"`
}

// DefaultParams returns a stable arterial-wall configuration.
func DefaultParams() Params {
	return Params{E: 5e5, NuP: 0.45, Rho: 1100, Dt: 5e-6, Damping: 10}
}

// Lame returns the Lamé parameters (λ, μ) of the material.
func (p Params) Lame() (lambda, mu float64) {
	mu = p.E / (2 * (1 + p.NuP))
	lambda = p.E * p.NuP / ((1 + p.NuP) * (1 - 2*p.NuP))
	return
}

// WaveSpeed returns the dilatational wave speed, for stability checks.
func (p Params) WaveSpeed() float64 {
	lambda, mu := p.Lame()
	return math.Sqrt((lambda + 2*mu) / p.Rho)
}

// Solver advances one subdomain of the wall displacement field.
type Solver struct {
	// Part is the owned subdomain (of the wall mesh).
	Part *mesh.Partition
	// P holds the parameters.
	P Params
	// Comm provides halos and reductions.
	Comm field.Comm

	// UX, UY, UZ are displacement components; prev* the previous step
	// and next* the buffers the step writes the next one into.
	UX, UY, UZ          *field.Field
	prevX, prevY, prevZ *field.Field
	nextX, nextY, nextZ *field.Field

	// xch backs the argument list of Comm.Exchange, so a halo exchange
	// builds no variadic slice on the heap.
	xch [3]*field.Field

	// traction is the pressure load the fluid applies on the inner
	// wall surface, per unit area (FSI coupling input).
	traction float64

	hx, hy, hz float64
}

// StepStats reports one structural step.
type StepStats struct {
	// MaxDisplacement is the global max displacement magnitude.
	MaxDisplacement float64
	// MeanRadialVelocity is the global mean wall radial velocity —
	// the quantity fed back to the fluid.
	MeanRadialVelocity float64
}

// NewSolver builds a wall solver for one partition.
func NewSolver(part *mesh.Partition, p Params, comm field.Comm) (*Solver, error) {
	if p.Dt <= 0 || p.Rho <= 0 || p.E <= 0 {
		return nil, fmt.Errorf("solid: bad parameters %+v", p)
	}
	h := math.Min(part.Grid.Mesh.HX, math.Min(part.Grid.Mesh.HY, part.Grid.Mesh.HZ))
	if p.Dt > 0.5*h/p.WaveSpeed() {
		return nil, fmt.Errorf("solid: dt %g unstable, need < %g (CFL for wave speed %g m/s)",
			p.Dt, 0.5*h/p.WaveSpeed(), p.WaveSpeed())
	}
	return &Solver{
		Part: part, P: p, Comm: comm,
		UX: field.New(part), UY: field.New(part), UZ: field.New(part),
		prevX: field.New(part), prevY: field.New(part), prevZ: field.New(part),
		nextX: field.New(part), nextY: field.New(part), nextZ: field.New(part),
		hx: part.Grid.Mesh.HX, hy: part.Grid.Mesh.HY, hz: part.Grid.Mesh.HZ,
	}, nil
}

// SetTraction installs the fluid pressure load (FSI coupling input).
func (s *Solver) SetTraction(p float64) { s.traction = p }

// fillGhosts applies the structural BCs: clamped at both tube ends
// (Dirichlet 0 at global z extremes), traction-free laterally (mirror).
// It also zeroes the edge and corner ghosts, which the mixed
// derivative's clamped divergence reads and nothing else writes.
func (s *Solver) fillGhosts(f *field.Field) {
	d := f.Data
	for face := mesh.XMinus; face <= mesh.ZPlus; face++ {
		if !s.Part.OnBoundary(face) {
			continue
		}
		l := f.Layer(face)
		for b := 0; b < l.NB; b++ {
			for a, m := 0, l.G+b*l.DB; a < l.NA; a, m = a+1, m+l.DA {
				if face == mesh.ZMinus || face == mesh.ZPlus {
					d[m] = -d[m+l.In] // clamped end
				} else {
					d[m] = d[m+l.In]
				}
			}
		}
	}
	f.ClearEdges()
}

// Step advances the displacement field by one explicit step:
// ρ·ü = μ∇²u + (λ+μ)∇(∇·u) + f − ρ·c·u̇.
func (s *Solver) Step() (StepStats, error) {
	lambda, mu := s.P.Lame()
	dt, rho := s.P.Dt, s.P.Rho
	nx, ny, nz := s.UX.NX, s.UX.NY, s.UX.NZ

	s.xch = [3]*field.Field{s.UX, s.UY, s.UZ}
	for _, f := range s.xch {
		s.fillGhosts(f)
	}
	s.Comm.Exchange(s.xch[:]...)

	// Components by axis at this step (uc), the previous (up) and the
	// next (un). The next fields are recycled buffers: zero them, ghosts
	// included, so a step leaves the same ghosts whatever they held.
	uc := [3][]float64{s.UX.Data, s.UY.Data, s.UZ.Data}
	up := [3][]float64{s.prevX.Data, s.prevY.Data, s.prevZ.Data}
	un := [3][]float64{s.nextX.Data, s.nextY.Data, s.nextZ.Data}
	for _, d := range un {
		clear(d)
	}

	// The fluid pressure pushes the wall outward: a radial body force
	// on the wall cells adjacent to the lumen (here: the lateral
	// boundary layer, directed outward per face).
	loadScale := s.traction / (rho * s.hx) // pressure → acceleration over one cell layer

	maxDisp, sumRadVel, radCount := 0.0, 0.0, 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i, m := 0, s.UX.Idx(0, j, k); i < nx; i, m = i+1, m+1 {
				ax := s.navierCauchyX(m, i, j, k, lambda, mu) / rho
				ay := s.navierCauchyY(m, i, j, k, lambda, mu) / rho
				az := s.navierCauchyZ(m, i, j, k, lambda, mu) / rho

				// FSI load on the inner-wall cells.
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

				for c, acc := range [3]float64{ax, ay, az} {
					cur, old := uc[c][m], up[c][m]
					vel := (cur - old) / dt
					un[c][m] = 2*cur - old + dt*dt*(acc-s.P.Damping*vel)
				}

				dx, dy, dz := uc[0][m], uc[1][m], uc[2][m]
				if d := math.Sqrt(dx*dx + dy*dy + dz*dz); d > maxDisp {
					maxDisp = d
				}
				// Outward radial velocity on wall-adjacent cells
				// (x faces as proxy): outward is −x on the low wall
				// and +x on the high wall, so the signs align and a
				// uniform inflation reads as a positive mean.
				if s.Part.I0+i == 0 {
					sumRadVel -= (un[0][m] - up[0][m]) / (2 * dt)
					radCount++
				}
				if s.Part.I0+i == s.Part.Grid.Mesh.NX-1 {
					sumRadVel += (un[0][m] - up[0][m]) / (2 * dt)
					radCount++
				}
			}
		}
	}

	s.prevX, s.UX, s.nextX = s.UX, s.nextX, s.prevX
	s.prevY, s.UY, s.nextY = s.UY, s.nextY, s.prevY
	s.prevZ, s.UZ, s.nextZ = s.UZ, s.nextZ, s.prevZ

	cells := float64(s.UX.Interior())
	s.Comm.Charge(cells*StepFlopsPerCell, cells*StepBytesPerCell)

	// Both sums are reduced whatever the data. Only a lone partition off
	// the x = 0 wall, as in the package tests, counts 0 (and sums 0).
	globalCount := s.Comm.AllSum(float64(radCount))
	meanRad := s.Comm.AllSum(sumRadVel) / max(globalCount, 1)
	return StepStats{
		MaxDisplacement:    s.Comm.AllMax(maxDisp),
		MeanRadialVelocity: meanRad,
	}, nil
}

// navierCauchy[XYZ] evaluate μ∇²u_c + (λ+μ)·∂(∇·u)/∂c at flat index m,
// the owned cell (i, j, k).
func (s *Solver) navierCauchyX(m, i, j, k int, lambda, mu float64) float64 {
	sy, sz := s.UX.Strides()
	lap := field.Laplace(s.UX.Data, m, sy, sz, s.hx, s.hy, s.hz)
	// ∂/∂x (∇·u) via mixed central differences.
	ddiv := (s.div(m+1, i+1, j, k) - s.div(m-1, i-1, j, k)) / (2 * s.hx)
	return mu*lap + (lambda+mu)*ddiv
}

func (s *Solver) navierCauchyY(m, i, j, k int, lambda, mu float64) float64 {
	sy, sz := s.UY.Strides()
	lap := field.Laplace(s.UY.Data, m, sy, sz, s.hx, s.hy, s.hz)
	ddiv := (s.div(m+sy, i, j+1, k) - s.div(m-sy, i, j-1, k)) / (2 * s.hy)
	return mu*lap + (lambda+mu)*ddiv
}

func (s *Solver) navierCauchyZ(m, i, j, k int, lambda, mu float64) float64 {
	sy, sz := s.UZ.Strides()
	lap := field.Laplace(s.UZ.Data, m, sy, sz, s.hx, s.hy, s.hz)
	ddiv := (s.div(m+sz, i, j, k+1) - s.div(m-sz, i, j, k-1)) / (2 * s.hz)
	return mu*lap + (lambda+mu)*ddiv
}

// div computes ∇·u at flat index m, the cell (i, j, k), with one-sided
// fallbacks at ghost distance (the divergence stencil may be asked one
// cell into the ghost layer by the mixed derivative).
func (s *Solver) div(m, i, j, k int) float64 {
	sy, sz := s.UX.Strides()
	xl, xh := reach(i, s.UX.NX, 1)
	yl, yh := reach(j, s.UX.NY, sy)
	zl, zh := reach(k, s.UX.NZ, sz)
	return (s.UX.Data[m+xh]-s.UX.Data[m+xl])/(2*s.hx) +
		(s.UY.Data[m+yh]-s.UY.Data[m+yl])/(2*s.hy) +
		(s.UZ.Data[m+zh]-s.UZ.Data[m+zl])/(2*s.hz)
}

// reach returns the flat offsets of the neighbours v−1 and v+1 of a
// coordinate v∈[-1,n] on an axis of n owned cells and stride st, each
// clamped to the ghost layer: past it, the neighbour is v itself.
func reach(v, n, st int) (lo, hi int) {
	if v >= 0 {
		lo = -st
	}
	if v < n {
		hi = st
	}
	return
}
