// Package navier implements the fluid half of the Alya-like workload:
// an incompressible Navier–Stokes solver (Chorin projection) for blood
// flow through an artery segment, on a collocated structured grid.
//
// The solver is written against field.Comm, so identical code runs
// sequentially and distributed over the simulated MPI; dot products in
// the pressure CG become global reductions and every stencil
// application is preceded by a halo exchange — the communication
// pattern whose scaling the paper measures.
package navier

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/krylov"
	"repro/internal/linalg"
	"repro/internal/mesh"
)

// Per-cell work of each solver phase: floating-point operations and
// memory traffic. These feed Comm.Charge here and the alya package's
// ModeModel fluid code, so a phase's charge costs the same in both
// modes; the model's communication is a simplified skeleton of Step's
// (the alya package doc lists the differences).
const (
	// AssemblyFlopsPerCell covers the tentative-velocity update
	// (upwind advection + diffusion, three components) plus the
	// divergence right-hand side.
	AssemblyFlopsPerCell = 150
	// AssemblyBytesPerCell is the matching memory traffic.
	AssemblyBytesPerCell = 230
	// CGIterFlopsPerCell covers one CG iteration: the 7-point stencil
	// apply plus the BLAS-1 updates.
	CGIterFlopsPerCell = 30
	// CGIterBytesPerCell is the matching memory traffic (the stencil
	// is strongly memory bound).
	CGIterBytesPerCell = 130
	// ProjectionFlopsPerCell covers the velocity correction and the
	// step diagnostics.
	ProjectionFlopsPerCell = 80
	// ProjectionBytesPerCell is the matching memory traffic.
	ProjectionBytesPerCell = 190
)

// Params are the physical and numerical parameters of the fluid case.
type Params struct {
	// Nu is the kinematic viscosity (m²/s). Blood ≈ 3.3e-6.
	Nu float64 `json:"Nu"`
	// Rho is the density (kg/m³). Blood ≈ 1060.
	Rho float64 `json:"Rho"`
	// Dt is the time step (s).
	Dt float64 `json:"Dt"`
	// InletVelocity is the peak axial velocity at the inlet (m/s).
	InletVelocity float64 `json:"InletVelocity"`
	// CGTol and CGMaxIter control the pressure solve.
	CGTol     float64 `json:"CGTol"`
	CGMaxIter int     `json:"CGMaxIter"`
}

// DefaultParams returns a stable configuration for the artery cases.
func DefaultParams() Params {
	return Params{
		Nu:            3.3e-6,
		Rho:           1060,
		Dt:            1e-3,
		InletVelocity: 0.1,
		CGTol:         1e-6,
		CGMaxIter:     400,
	}
}

// Solver advances one subdomain of the fluid problem.
type Solver struct {
	// Part is the owned subdomain.
	Part *mesh.Partition
	// P holds the parameters.
	P Params
	// Comm provides halos and reductions.
	Comm field.Comm

	// U, V, W are the velocity components; Pr the pressure.
	U, V, W, Pr *field.Field

	// wallVel is the FSI wall-motion coupling term: a radial wall
	// velocity the solid solver feeds back, applied at wall faces.
	wallVel float64

	// work fields
	us, vs, ws *field.Field
	rhs        []float64
	tmp        *field.Field

	hx, hy, hz float64
}

// StepStats reports one time step's outcome.
type StepStats struct {
	// CGIterations is the pressure-solve iteration count.
	CGIterations int
	// CGResidual is the final relative residual.
	CGResidual float64
	// MaxDivergence is the global max |∇·u| after projection.
	MaxDivergence float64
	// MaxVelocity is the global max velocity magnitude component.
	MaxVelocity float64
}

// NewSolver builds a solver for one partition.
func NewSolver(part *mesh.Partition, p Params, comm field.Comm) (*Solver, error) {
	if p.Dt <= 0 || p.Rho <= 0 || p.Nu < 0 {
		return nil, fmt.Errorf("navier: bad parameters %+v", p)
	}
	s := &Solver{
		Part: part, P: p, Comm: comm,
		U: field.New(part), V: field.New(part), W: field.New(part), Pr: field.New(part),
		us: field.New(part), vs: field.New(part), ws: field.New(part),
		tmp: field.New(part),
		hx:  part.Grid.Mesh.HX, hy: part.Grid.Mesh.HY, hz: part.Grid.Mesh.HZ,
	}
	s.rhs = make([]float64, s.U.Interior())
	return s, nil
}

// SetWallVelocity installs the FSI coupling term (radial wall motion).
func (s *Solver) SetWallVelocity(v float64) { s.wallVel = v }

// inletProfile is the parabolic (Poiseuille) inlet profile at global
// cell (i, j): peak at the tube axis, zero at the wall.
func (s *Solver) inletProfile(gi, gj int) float64 {
	m := s.Part.Grid.Mesh
	cx := float64(m.NX) / 2
	cy := float64(m.NY) / 2
	dx := (float64(gi) + 0.5 - cx) / cx
	dy := (float64(gj) + 0.5 - cy) / cy
	r2 := dx*dx + dy*dy
	if r2 >= 1 {
		return 0
	}
	return s.P.InletVelocity * (1 - r2)
}

// boundary ghost-fill kinds for fillGhosts.
type bcKind int

const (
	bcVelU bcKind = iota // lateral no-slip, inlet 0, outlet zero-gradient
	bcVelV
	bcVelW // lateral no-slip, inlet Dirichlet profile, outlet zero-gradient
	bcPres // Neumann everywhere except Dirichlet 0 at outlet
)

// fillGhosts sets the physical-boundary ghost layers of f according to
// the BC kind. Partition-internal faces are left for Comm.Exchange.
func (s *Solver) fillGhosts(f *field.Field, kind bcKind) {
	p := s.Part
	nx, ny, nz := f.NX, f.NY, f.NZ

	// Lateral boundaries (vessel wall).
	if p.I0 == 0 {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				s.wallGhost(f, kind, -1, j, k, 0, j, k)
			}
		}
	}
	if p.I1 == p.Grid.Mesh.NX {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				s.wallGhost(f, kind, nx, j, k, nx-1, j, k)
			}
		}
	}
	if p.J0 == 0 {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				s.wallGhost(f, kind, i, -1, k, i, 0, k)
			}
		}
	}
	if p.J1 == p.Grid.Mesh.NY {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				s.wallGhost(f, kind, i, ny, k, i, ny-1, k)
			}
		}
	}

	// Inlet (global k == 0).
	if p.OnInlet() {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				in := f.At(i, j, 0)
				switch kind {
				case bcVelU, bcVelV:
					f.Set(i, j, -1, -in)
				case bcVelW:
					prof := s.inletProfile(p.I0+i, p.J0+j)
					f.Set(i, j, -1, 2*prof-in)
				case bcPres:
					f.Set(i, j, -1, in)
				}
			}
		}
	}
	// Outlet (global k == NZ).
	if p.OnOutlet() {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				in := f.At(i, j, nz-1)
				switch kind {
				case bcVelU, bcVelV, bcVelW:
					f.Set(i, j, nz, in) // zero gradient
				case bcPres:
					f.Set(i, j, nz, -in) // p = 0 at the outlet face
				}
			}
		}
	}
}

// wallGhost fills one lateral-wall ghost cell: no-slip for velocity
// (with the FSI wall-motion term), mirror for pressure.
func (s *Solver) wallGhost(f *field.Field, kind bcKind, gi, gj, gk, ii, ij, ik int) {
	in := f.At(ii, ij, ik)
	switch kind {
	case bcVelU, bcVelV, bcVelW:
		f.Set(gi, gj, gk, -in+2*s.wallVel)
	case bcPres:
		f.Set(gi, gj, gk, in)
	}
}

// syncVelocity fills BC ghosts and exchanges halos for a velocity set.
func (s *Solver) syncVelocity(u, v, w *field.Field) {
	s.fillGhosts(u, bcVelU)
	s.fillGhosts(v, bcVelV)
	s.fillGhosts(w, bcVelW)
	s.Comm.Exchange(u, v, w)
}

// Step advances the solution by one time step and returns its stats.
func (s *Solver) Step() (StepStats, error) {
	nx, ny, nz := s.U.NX, s.U.NY, s.U.NZ
	dt, nu := s.P.Dt, s.P.Nu

	// 1. Tentative velocity: u* = u + dt(ν∇²u − (u·∇)u).
	s.syncVelocity(s.U, s.V, s.W)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				au := s.advect(s.U, i, j, k)
				av := s.advect(s.V, i, j, k)
				aw := s.advect(s.W, i, j, k)
				lu := s.laplace(s.U, i, j, k)
				lv := s.laplace(s.V, i, j, k)
				lw := s.laplace(s.W, i, j, k)
				s.us.Set(i, j, k, s.U.At(i, j, k)+dt*(nu*lu-au))
				s.vs.Set(i, j, k, s.V.At(i, j, k)+dt*(nu*lv-av))
				s.ws.Set(i, j, k, s.W.At(i, j, k)+dt*(nu*lw-aw))
			}
		}
	}

	cells := float64(s.U.Interior())
	s.Comm.Charge(cells*AssemblyFlopsPerCell, cells*AssemblyBytesPerCell)

	// 2. Pressure Poisson: −∇²p = −(ρ/dt)∇·u*.
	s.syncVelocity(s.us, s.vs, s.ws)
	n := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				s.rhs[n] = -(s.P.Rho / dt) * s.div(s.us, s.vs, s.ws, i, j, k)
				n++
			}
		}
	}
	x := make([]float64, len(s.rhs))
	s.Pr.CopyInterior(x) // warm start from the previous pressure
	res, err := krylov.CG(krylov.OperatorFunc(s.applyNegLaplacian), s.rhs, x, krylov.Options{
		MaxIter: s.P.CGMaxIter,
		Tol:     s.P.CGTol,
		Dot: func(a, b []float64) float64 {
			return s.Comm.AllSum(linalg.Dot(a, b))
		},
	})
	if err != nil {
		return StepStats{}, fmt.Errorf("navier: pressure solve: %w", err)
	}
	s.Pr.SetInterior(x)

	// 3. Projection: u = u* − (dt/ρ)∇p.
	s.fillGhosts(s.Pr, bcPres)
	s.Comm.Exchange(s.Pr)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				gx, gy, gz := s.grad(s.Pr, i, j, k)
				c := dt / s.P.Rho
				s.U.Set(i, j, k, s.us.At(i, j, k)-c*gx)
				s.V.Set(i, j, k, s.vs.At(i, j, k)-c*gy)
				s.W.Set(i, j, k, s.ws.At(i, j, k)-c*gz)
			}
		}
	}

	// 4. Diagnostics on the corrected field.
	s.syncVelocity(s.U, s.V, s.W)
	maxDiv, maxVel := 0.0, 0.0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if d := math.Abs(s.div(s.U, s.V, s.W, i, j, k)); d > maxDiv {
					maxDiv = d
				}
				for _, v := range [3]float64{s.U.At(i, j, k), s.V.At(i, j, k), s.W.At(i, j, k)} {
					if a := math.Abs(v); a > maxVel {
						maxVel = a
					}
				}
			}
		}
	}
	s.Comm.Charge(cells*ProjectionFlopsPerCell, cells*ProjectionBytesPerCell)
	return StepStats{
		CGIterations:  res.Iterations,
		CGResidual:    res.Residual,
		MaxDivergence: s.Comm.AllMax(maxDiv),
		MaxVelocity:   s.Comm.AllMax(maxVel),
	}, nil
}

// applyNegLaplacian is the CG operator: dst = −∇²·src with the pressure
// boundary conditions (SPD thanks to the outlet Dirichlet condition).
func (s *Solver) applyNegLaplacian(dst, src []float64) {
	cells := float64(len(src))
	s.Comm.Charge(cells*CGIterFlopsPerCell, cells*CGIterBytesPerCell)
	s.tmp.SetInterior(src)
	s.fillGhosts(s.tmp, bcPres)
	s.Comm.Exchange(s.tmp)
	n := 0
	for k := 0; k < s.tmp.NZ; k++ {
		for j := 0; j < s.tmp.NY; j++ {
			for i := 0; i < s.tmp.NX; i++ {
				dst[n] = -s.laplace(s.tmp, i, j, k)
				n++
			}
		}
	}
}

// laplace is the 7-point Laplacian at (i, j, k), ghosts filled.
func (s *Solver) laplace(f *field.Field, i, j, k int) float64 {
	c := f.At(i, j, k)
	return (f.At(i-1, j, k)-2*c+f.At(i+1, j, k))/(s.hx*s.hx) +
		(f.At(i, j-1, k)-2*c+f.At(i, j+1, k))/(s.hy*s.hy) +
		(f.At(i, j, k-1)-2*c+f.At(i, j, k+1))/(s.hz*s.hz)
}

// grad is the central-difference gradient at (i, j, k).
func (s *Solver) grad(f *field.Field, i, j, k int) (gx, gy, gz float64) {
	gx = (f.At(i+1, j, k) - f.At(i-1, j, k)) / (2 * s.hx)
	gy = (f.At(i, j+1, k) - f.At(i, j-1, k)) / (2 * s.hy)
	gz = (f.At(i, j, k+1) - f.At(i, j, k-1)) / (2 * s.hz)
	return
}

// div is the central-difference divergence of (u, v, w) at (i, j, k).
func (s *Solver) div(u, v, w *field.Field, i, j, k int) float64 {
	return (u.At(i+1, j, k)-u.At(i-1, j, k))/(2*s.hx) +
		(v.At(i, j+1, k)-v.At(i, j-1, k))/(2*s.hy) +
		(w.At(i, j, k+1)-w.At(i, j, k-1))/(2*s.hz)
}

// advect is the first-order upwind convective term (u·∇)f at (i, j, k).
func (s *Solver) advect(f *field.Field, i, j, k int) float64 {
	u, v, w := s.U.At(i, j, k), s.V.At(i, j, k), s.W.At(i, j, k)
	var dfx, dfy, dfz float64
	if u >= 0 {
		dfx = (f.At(i, j, k) - f.At(i-1, j, k)) / s.hx
	} else {
		dfx = (f.At(i+1, j, k) - f.At(i, j, k)) / s.hx
	}
	if v >= 0 {
		dfy = (f.At(i, j, k) - f.At(i, j-1, k)) / s.hy
	} else {
		dfy = (f.At(i, j+1, k) - f.At(i, j, k)) / s.hy
	}
	if w >= 0 {
		dfz = (f.At(i, j, k) - f.At(i, j, k-1)) / s.hz
	} else {
		dfz = (f.At(i, j, k+1) - f.At(i, j, k)) / s.hz
	}
	return u*dfx + v*dfy + w*dfz
}

// WallPressure returns the mean pressure over this partition's wall
// cells — the traction datum the FSI coupler ships to the solid code.
// Returns 0 for interior partitions.
func (s *Solver) WallPressure() float64 {
	if !s.Part.OnWall() {
		return 0
	}
	nx, ny, nz := s.Pr.NX, s.Pr.NY, s.Pr.NZ
	sum, count := 0.0, 0
	if s.Part.I0 == 0 {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				sum += s.Pr.At(0, j, k)
				count++
			}
		}
	}
	if s.Part.I1 == s.Part.Grid.Mesh.NX {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				sum += s.Pr.At(nx-1, j, k)
				count++
			}
		}
	}
	if s.Part.J0 == 0 {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				sum += s.Pr.At(i, 0, k)
				count++
			}
		}
	}
	if s.Part.J1 == s.Part.Grid.Mesh.NY {
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				sum += s.Pr.At(i, ny-1, k)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
