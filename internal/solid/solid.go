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
// with the mixed divergence derivatives), feeding Comm.Charge and the
// model-mode workload generator.
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

	// UX, UY, UZ are displacement components; prev* the previous step.
	UX, UY, UZ          *field.Field
	prevX, prevY, prevZ *field.Field

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
		hx: part.Grid.Mesh.HX, hy: part.Grid.Mesh.HY, hz: part.Grid.Mesh.HZ,
	}, nil
}

// SetTraction installs the fluid pressure load (FSI coupling input).
func (s *Solver) SetTraction(p float64) { s.traction = p }

// fillGhosts applies the structural BCs: clamped at both tube ends
// (Dirichlet 0 at global z extremes), traction-free laterally (mirror).
func (s *Solver) fillGhosts(f *field.Field) {
	p := s.Part
	nx, ny, nz := f.NX, f.NY, f.NZ
	if p.I0 == 0 {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				f.Set(-1, j, k, f.At(0, j, k))
			}
		}
	}
	if p.I1 == p.Grid.Mesh.NX {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				f.Set(nx, j, k, f.At(nx-1, j, k))
			}
		}
	}
	if p.J0 == 0 {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				f.Set(i, -1, k, f.At(i, 0, k))
			}
		}
	}
	if p.J1 == p.Grid.Mesh.NY {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				f.Set(i, ny, k, f.At(i, ny-1, k))
			}
		}
	}
	if p.OnInlet() {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				f.Set(i, j, -1, -f.At(i, j, 0)) // clamped end
			}
		}
	}
	if p.OnOutlet() {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				f.Set(i, j, nz, -f.At(i, j, nz-1)) // clamped end
			}
		}
	}
}

// Step advances the displacement field by one explicit step:
// ρ·ü = μ∇²u + (λ+μ)∇(∇·u) + f − ρ·c·u̇.
func (s *Solver) Step() (StepStats, error) {
	lambda, mu := s.P.Lame()
	dt, rho := s.P.Dt, s.P.Rho
	nx, ny, nz := s.UX.NX, s.UX.NY, s.UX.NZ

	for _, f := range []*field.Field{s.UX, s.UY, s.UZ} {
		s.fillGhosts(f)
	}
	s.Comm.Exchange(s.UX, s.UY, s.UZ)

	nextX := field.New(s.Part)
	nextY := field.New(s.Part)
	nextZ := field.New(s.Part)

	// The fluid pressure pushes the wall outward: a radial body force
	// on the wall cells adjacent to the lumen (here: the lateral
	// boundary layer, directed outward per face).
	loadScale := s.traction / (rho * s.hx) // pressure → acceleration over one cell layer

	maxDisp, sumRadVel, radCount := 0.0, 0.0, 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				ax := s.navierCauchyX(i, j, k, lambda, mu) / rho
				ay := s.navierCauchyY(i, j, k, lambda, mu) / rho
				az := s.navierCauchyZ(i, j, k, lambda, mu) / rho

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

				for c, f := range [3]*field.Field{s.UX, s.UY, s.UZ} {
					var acc float64
					var prev *field.Field
					switch c {
					case 0:
						acc, prev = ax, s.prevX
					case 1:
						acc, prev = ay, s.prevY
					default:
						acc, prev = az, s.prevZ
					}
					cur := f.At(i, j, k)
					old := prev.At(i, j, k)
					vel := (cur - old) / dt
					next := 2*cur - old + dt*dt*(acc-s.P.Damping*vel)
					switch c {
					case 0:
						nextX.Set(i, j, k, next)
					case 1:
						nextY.Set(i, j, k, next)
					default:
						nextZ.Set(i, j, k, next)
					}
				}

				dx, dy, dz := s.UX.At(i, j, k), s.UY.At(i, j, k), s.UZ.At(i, j, k)
				if d := math.Sqrt(dx*dx + dy*dy + dz*dz); d > maxDisp {
					maxDisp = d
				}
				// Outward radial velocity on wall-adjacent cells
				// (x faces as proxy): outward is −x on the low wall
				// and +x on the high wall, so the signs align and a
				// uniform inflation reads as a positive mean.
				if s.Part.I0+i == 0 {
					sumRadVel -= (nextX.At(i, j, k) - s.prevX.At(i, j, k)) / (2 * dt)
					radCount++
				}
				if s.Part.I0+i == s.Part.Grid.Mesh.NX-1 {
					sumRadVel += (nextX.At(i, j, k) - s.prevX.At(i, j, k)) / (2 * dt)
					radCount++
				}
			}
		}
	}

	s.prevX, s.UX = s.UX, nextX
	s.prevY, s.UY = s.UY, nextY
	s.prevZ, s.UZ = s.UZ, nextZ

	cells := float64(s.UX.Interior())
	s.Comm.Charge(cells*StepFlopsPerCell, cells*StepBytesPerCell)

	globalCount := s.Comm.AllSum(float64(radCount))
	meanRad := 0.0
	if globalCount > 0 {
		meanRad = s.Comm.AllSum(sumRadVel) / globalCount
	}
	return StepStats{
		MaxDisplacement:    s.Comm.AllMax(maxDisp),
		MeanRadialVelocity: meanRad,
	}, nil
}

// navierCauchy[XYZ] evaluate μ∇²u_c + (λ+μ)·∂(∇·u)/∂c at (i, j, k).
func (s *Solver) navierCauchyX(i, j, k int, lambda, mu float64) float64 {
	lap := s.laplace(s.UX, i, j, k)
	// ∂/∂x (∇·u) via mixed central differences.
	ddiv := (s.div(i+1, j, k) - s.div(i-1, j, k)) / (2 * s.hx)
	return mu*lap + (lambda+mu)*ddiv
}

func (s *Solver) navierCauchyY(i, j, k int, lambda, mu float64) float64 {
	lap := s.laplace(s.UY, i, j, k)
	ddiv := (s.div(i, j+1, k) - s.div(i, j-1, k)) / (2 * s.hy)
	return mu*lap + (lambda+mu)*ddiv
}

func (s *Solver) navierCauchyZ(i, j, k int, lambda, mu float64) float64 {
	lap := s.laplace(s.UZ, i, j, k)
	ddiv := (s.div(i, j, k+1) - s.div(i, j, k-1)) / (2 * s.hz)
	return mu*lap + (lambda+mu)*ddiv
}

// div computes ∇·u at (i, j, k) with one-sided fallbacks at ghost
// distance (the divergence stencil may be asked one cell into the
// ghost layer by the mixed derivative).
func (s *Solver) div(i, j, k int) float64 {
	at := func(f *field.Field, i, j, k int) float64 {
		i = clamp(i, -1, f.NX)
		j = clamp(j, -1, f.NY)
		k = clamp(k, -1, f.NZ)
		return f.At(i, j, k)
	}
	return (at(s.UX, i+1, j, k)-at(s.UX, i-1, j, k))/(2*s.hx) +
		(at(s.UY, i, j+1, k)-at(s.UY, i, j-1, k))/(2*s.hy) +
		(at(s.UZ, i, j, k+1)-at(s.UZ, i, j, k-1))/(2*s.hz)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// laplace is the 7-point Laplacian at (i, j, k).
func (s *Solver) laplace(f *field.Field, i, j, k int) float64 {
	c := f.At(i, j, k)
	return (f.At(i-1, j, k)-2*c+f.At(i+1, j, k))/(s.hx*s.hx) +
		(f.At(i, j-1, k)-2*c+f.At(i, j+1, k))/(s.hy*s.hy) +
		(f.At(i, j, k-1)-2*c+f.At(i, j, k+1))/(s.hz*s.hz)
}
