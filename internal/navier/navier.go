// Package navier implements the fluid half of the Alya-like workload:
// an incompressible Navier–Stokes solver (Chorin projection) for blood
// flow through an artery segment, on a collocated structured grid.
//
// The solver is written against field.Comm, so identical code runs
// sequentially and distributed over the simulated MPI; dot products in
// the pressure CG become global reductions and every stencil
// application is preceded by a halo exchange — the communication
// pattern whose scaling the paper measures.
//
// The kernels index the fields' Data on the field package's layout and
// stride contract: a row's start is computed once, a cell's neighbours
// are m±1, m±sy and m±sz, and the 7-point Laplacian is field.Laplace,
// which the solid solver shares. The CG operator, where a step spends
// most of its time, runs the same stencil over row slices and sums
// pᵀAp in the same pass, so a CG iteration walks its vectors twice;
// the boundary-ghost rule is chosen once per face, not per cell. Each
// floating-point expression keeps the operands and evaluation order of
// its (i, j, k) form, so the results match that form bit for bit; the
// package tests keep it as the reference.
package navier

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/krylov"
	"repro/internal/mesh"
)

// Per-cell work of each solver phase: floating-point operations and
// memory traffic. These feed Comm.Charge here and the alya package's
// fluid step program, ModeModel's data form of Step, which makes
// Step's charges, halos and reductions in Step's order.
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
	rhs, x     []float64
	tmp        *field.Field

	// cg is the pressure solver, bound to applyNegLaplacian and
	// Comm.AllSum once.
	cg krylov.CG
	// xch backs the argument list of every Comm.Exchange, so a halo
	// exchange builds no variadic slice on the heap.
	xch [3]*field.Field

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
	s.x = make([]float64, len(s.rhs))
	s.cg = krylov.CG{A: s.applyNegLaplacian, Sum: func(v float64) float64 { return s.Comm.AllSum(v) }}
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

// ghostRule is how one face's ghosts follow the owned cells beside them.
type ghostRule int

const (
	ghostCopy   ghostRule = iota // zero gradient
	ghostNegate                  // zero on the face
	ghostWall                    // no-slip with the FSI wall-motion term
	ghostInlet                   // the inlet profile on the face
)

// fillGhosts sets the physical-boundary ghost layers of f according to
// the BC kind, choosing each face's rule once. Partition-internal faces
// are left for Comm.Exchange.
func (s *Solver) fillGhosts(f *field.Field, kind bcKind) {
	p, d := s.Part, f.Data
	wall := 2 * s.wallVel
	for face := mesh.XMinus; face <= mesh.ZPlus; face++ {
		if !p.OnBoundary(face) {
			continue
		}
		var rule ghostRule
		switch {
		case face == mesh.ZPlus && kind == bcPres:
			rule = ghostNegate // p = 0 at the outlet face
		case face == mesh.ZPlus, kind == bcPres:
			rule = ghostCopy
		case face == mesh.ZMinus && kind == bcVelW:
			rule = ghostInlet
		case face == mesh.ZMinus:
			rule = ghostNegate
		default: // vessel wall
			rule = ghostWall
		}
		l := f.Layer(face)
		for b := 0; b < l.NB; b++ {
			m := l.G + b*l.DB
			end := m + l.NA*l.DA
			switch rule {
			case ghostCopy:
				for ; m < end; m += l.DA {
					d[m] = d[m+l.In]
				}
			case ghostNegate:
				for ; m < end; m += l.DA {
					d[m] = -d[m+l.In]
				}
			case ghostWall:
				for ; m < end; m += l.DA {
					d[m] = -d[m+l.In] + wall
				}
			case ghostInlet:
				for a := 0; m < end; a, m = a+1, m+l.DA {
					d[m] = float64(2*s.inletProfile(p.I0+a, p.J0+b)) - d[m+l.In]
				}
			}
		}
	}
}

// syncVelocity fills BC ghosts and exchanges halos for a velocity set.
func (s *Solver) syncVelocity(u, v, w *field.Field) {
	s.fillGhosts(u, bcVelU)
	s.fillGhosts(v, bcVelV)
	s.fillGhosts(w, bcVelW)
	s.exchange(u, v, w)
}

// exchange swaps the halos of up to three fields through Comm, passing
// them in xch.
func (s *Solver) exchange(fs ...*field.Field) {
	n := copy(s.xch[:], fs)
	s.Comm.Exchange(s.xch[:n]...)
}

// Step advances the solution by one time step and returns its stats.
func (s *Solver) Step() (StepStats, error) {
	nx, ny, nz := s.U.NX, s.U.NY, s.U.NZ
	dt, nu := s.P.Dt, s.P.Nu
	u, v, w := s.U.Data, s.V.Data, s.W.Data
	us, vs, ws := s.us.Data, s.vs.Data, s.ws.Data
	sy, sz := s.U.Strides()

	// 1. Tentative velocity: u* = u + dt(ν∇²u − (u·∇)u).
	s.syncVelocity(s.U, s.V, s.W)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for m, end := s.U.Idx(0, j, k), s.U.Idx(nx, j, k); m < end; m++ {
				au := s.advect(s.U, m)
				av := s.advect(s.V, m)
				aw := s.advect(s.W, m)
				lu := field.Laplace(u, m, sy, sz, s.hx, s.hy, s.hz)
				lv := field.Laplace(v, m, sy, sz, s.hx, s.hy, s.hz)
				lw := field.Laplace(w, m, sy, sz, s.hx, s.hy, s.hz)
				us[m] = u[m] + dt*(nu*lu-au)
				vs[m] = v[m] + dt*(nu*lv-av)
				ws[m] = w[m] + dt*(nu*lw-aw)
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
			for m, end := s.U.Idx(0, j, k), s.U.Idx(nx, j, k); m < end; m, n = m+1, n+1 {
				s.rhs[n] = -(s.P.Rho / dt) * s.div(s.us, s.vs, s.ws, m)
			}
		}
	}
	s.Pr.CopyInterior(s.x) // warm start from the previous pressure
	s.cg.MaxIter, s.cg.Tol = s.P.CGMaxIter, s.P.CGTol
	res, err := s.cg.Solve(s.rhs, s.x)
	if err != nil {
		return StepStats{}, fmt.Errorf("navier: pressure solve: %w", err)
	}
	s.Pr.SetInterior(s.x)

	// 3. Projection: u = u* − (dt/ρ)∇p.
	s.fillGhosts(s.Pr, bcPres)
	s.exchange(s.Pr)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for m, end := s.U.Idx(0, j, k), s.U.Idx(nx, j, k); m < end; m++ {
				gx, gy, gz := s.grad(s.Pr, m)
				c := dt / s.P.Rho
				u[m] = us[m] - c*gx
				v[m] = vs[m] - c*gy
				w[m] = ws[m] - c*gz
			}
		}
	}

	// 4. Diagnostics on the corrected field.
	s.syncVelocity(s.U, s.V, s.W)
	maxDiv, maxVel := 0.0, 0.0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for m, end := s.U.Idx(0, j, k), s.U.Idx(nx, j, k); m < end; m++ {
				if d := math.Abs(s.div(s.U, s.V, s.W, m)); d > maxDiv {
					maxDiv = d
				}
				for _, c := range [3]float64{u[m], v[m], w[m]} {
					if a := math.Abs(c); a > maxVel {
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
// It returns the local srcᵀ·dst, summed in the same pass: a cell's
// product is added as soon as its stencil is done, in index order.
func (s *Solver) applyNegLaplacian(dst, src []float64) float64 {
	cells := float64(len(src))
	s.Comm.Charge(cells*CGIterFlopsPerCell, cells*CGIterBytesPerCell)
	t := s.tmp
	t.SetInterior(src)
	s.fillGhosts(t, bcPres)
	s.exchange(t)
	d, nx := t.Data, t.NX
	sy, sz := t.Strides()
	hx2, hy2, hz2 := s.hx*s.hx, s.hy*s.hy, s.hz*s.hz
	n, sum := 0, 0.0
	for k := 0; k < t.NZ; k++ {
		for j := 0; j < t.NY; j++ {
			m := t.Idx(0, j, k)
			c, out := d[m:][:nx], dst[n:][:nx]
			xm, xp := d[m-1:][:nx], d[m+1:][:nx]
			ym, yp := d[m-sy:][:nx], d[m+sy:][:nx]
			zm, zp := d[m-sz:][:nx], d[m+sz:][:nx]
			for i, ci := range c {
				v := -((xm[i]-float64(2*ci)+xp[i])/hx2 +
					(ym[i]-float64(2*ci)+yp[i])/hy2 +
					(zm[i]-float64(2*ci)+zp[i])/hz2)
				out[i] = v
				sum += float64(ci * v)
			}
			n += nx
		}
	}
	return sum
}

// grad is the central-difference gradient at flat index m.
func (s *Solver) grad(f *field.Field, m int) (gx, gy, gz float64) {
	d := f.Data
	sy, sz := f.Strides()
	gx = (d[m+1] - d[m-1]) / (2 * s.hx)
	gy = (d[m+sy] - d[m-sy]) / (2 * s.hy)
	gz = (d[m+sz] - d[m-sz]) / (2 * s.hz)
	return
}

// div is the central-difference divergence of (u, v, w) at flat index m.
func (s *Solver) div(u, v, w *field.Field, m int) float64 {
	sy, sz := u.Strides()
	return (u.Data[m+1]-u.Data[m-1])/(2*s.hx) +
		(v.Data[m+sy]-v.Data[m-sy])/(2*s.hy) +
		(w.Data[m+sz]-w.Data[m-sz])/(2*s.hz)
}

// advect is the first-order upwind convective term (u·∇)f at flat
// index m.
func (s *Solver) advect(f *field.Field, m int) float64 {
	u, v, w := s.U.Data[m], s.V.Data[m], s.W.Data[m]
	d := f.Data
	sy, sz := f.Strides()
	var dfx, dfy, dfz float64
	if u >= 0 {
		dfx = (d[m] - d[m-1]) / s.hx
	} else {
		dfx = (d[m+1] - d[m]) / s.hx
	}
	if v >= 0 {
		dfy = (d[m] - d[m-sy]) / s.hy
	} else {
		dfy = (d[m+sy] - d[m]) / s.hy
	}
	if w >= 0 {
		dfz = (d[m] - d[m-sz]) / s.hz
	} else {
		dfz = (d[m+sz] - d[m]) / s.hz
	}
	return u*dfx + v*dfy + w*dfz
}

// WallPressure returns the mean pressure over this partition's wall
// cells — the traction datum the FSI coupler ships to the solid code.
// Returns 0 for interior partitions.
func (s *Solver) WallPressure() float64 {
	sum, count := 0.0, 0
	for face := mesh.XMinus; face <= mesh.YPlus; face++ {
		if !s.Part.OnBoundary(face) {
			continue
		}
		l := s.Pr.Layer(face)
		for b := 0; b < l.NB; b++ {
			for a, m := 0, l.G+b*l.DB+l.In; a < l.NA; a, m = a+1, m+l.DA {
				sum += s.Pr.Data[m]
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
