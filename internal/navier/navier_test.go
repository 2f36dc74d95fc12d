package navier

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/mesh"
)

func solver(t *testing.T, nx, ny, nz int, p Params) *Solver {
	t.Helper()
	m, err := mesh.NewMesh(nx, ny, nz, 1e-3, 1e-3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mesh.Decompose(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g.Part(0), p, field.SeqComm{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSolverValidates(t *testing.T) {
	m, _ := mesh.NewMesh(4, 4, 4, 1e-3, 1e-3, 1e-3)
	g, _ := mesh.Decompose(m, 1)
	bad := DefaultParams()
	bad.Dt = 0
	if _, err := NewSolver(g.Part(0), bad, field.SeqComm{}); err == nil {
		t.Fatal("zero dt accepted")
	}
	bad = DefaultParams()
	bad.Rho = -1
	if _, err := NewSolver(g.Part(0), bad, field.SeqComm{}); err == nil {
		t.Fatal("negative density accepted")
	}
}

func TestStepConvergesAndBoundsVelocity(t *testing.T) {
	p := DefaultParams()
	p.Dt = 2e-4
	s := solver(t, 10, 10, 14, p)
	var last StepStats
	for i := 0; i < 10; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.CGIterations <= 0 {
			t.Fatalf("step %d: no CG iterations", i)
		}
		if st.CGResidual > p.CGTol*10 {
			t.Fatalf("step %d: CG residual %v", i, st.CGResidual)
		}
		// The inlet drives at InletVelocity; the interior field must
		// stay bounded well below a blow-up.
		if st.MaxVelocity > 10*p.InletVelocity {
			t.Fatalf("step %d: velocity blow-up %v", i, st.MaxVelocity)
		}
		if math.IsNaN(st.MaxVelocity) || math.IsNaN(st.MaxDivergence) {
			t.Fatalf("step %d: NaN in diagnostics", i)
		}
		last = st
	}
	if last.MaxVelocity <= 0 {
		t.Fatal("flow never developed: zero velocity after 10 steps")
	}
}

func TestProjectionReducesDivergence(t *testing.T) {
	// Compare the post-projection divergence against the divergence
	// the tentative velocity field would have without the pressure
	// correction (solve with CG disabled via a huge tolerance).
	p := DefaultParams()
	p.Dt = 2e-4
	corrected := solver(t, 10, 10, 14, p)

	uncorrected := solver(t, 10, 10, 14, p)
	uncorrected.P.CGMaxIter = 1 // cripple the projection

	var divC, divU float64
	for i := 0; i < 5; i++ {
		st, err := corrected.Step()
		if err != nil {
			t.Fatal(err)
		}
		divC = st.MaxDivergence
		stu, err := uncorrected.Step()
		if err != nil {
			t.Fatal(err)
		}
		divU = stu.MaxDivergence
	}
	if divC >= divU {
		t.Fatalf("projection did not reduce divergence: corrected %v vs crippled %v", divC, divU)
	}
	if divC > 0.35*divU {
		t.Fatalf("projection too weak: corrected %v vs crippled %v", divC, divU)
	}
}

func TestFlowDevelopsDownstream(t *testing.T) {
	// After some steps the axial velocity near the axis must be
	// positive (flow entering at the inlet travels down the tube) and
	// larger at the axis than at the wall (Poiseuille-like shape).
	p := DefaultParams()
	p.Dt = 2e-4
	s := solver(t, 12, 12, 16, p)
	for i := 0; i < 30; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	axis := at(s.W, 6, 6, 8)
	wall := at(s.W, 0, 6, 8)
	if axis <= 0 {
		t.Fatalf("axial velocity at the axis is %v, want > 0", axis)
	}
	if axis <= math.Abs(wall) {
		t.Fatalf("no Poiseuille shape: axis %v, wall %v", axis, wall)
	}
}

func TestInletProfileParabolic(t *testing.T) {
	s := solver(t, 16, 16, 8, DefaultParams())
	center := s.inletProfile(8, 8)
	edge := s.inletProfile(0, 8)
	outside := s.inletProfile(0, 0) // corner: outside the circle
	if center <= 0 {
		t.Fatalf("center profile %v", center)
	}
	if center <= edge {
		t.Fatalf("profile not peaked: center %v edge %v", center, edge)
	}
	if outside != 0 {
		t.Fatalf("corner profile %v, want 0", outside)
	}
	if math.Abs(center-s.P.InletVelocity) > 0.02*s.P.InletVelocity {
		t.Fatalf("peak %v, want ≈ %v", center, s.P.InletVelocity)
	}
}

func TestLaplacianOperatorSymmetric(t *testing.T) {
	// The CG operator must be symmetric: x·(A y) == y·(A x) for
	// arbitrary x, y — this is what entitles us to use CG at all.
	s := solver(t, 5, 4, 6, DefaultParams())
	n := 5 * 4 * 6
	x := make([]float64, n)
	y := make([]float64, n)
	ax := make([]float64, n)
	ay := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i) + 0.5)
		y[i] = math.Cos(float64(7*i) - 1.5)
	}
	s.applyNegLaplacian(ax, x)
	s.applyNegLaplacian(ay, y)
	var xay, yax float64
	for i := range x {
		xay += x[i] * ay[i]
		yax += y[i] * ax[i]
	}
	if math.Abs(xay-yax) > 1e-9*(math.Abs(xay)+1) {
		t.Fatalf("operator asymmetric: x·Ay=%v y·Ax=%v", xay, yax)
	}
}

func TestLaplacianOperatorPositive(t *testing.T) {
	// x·(A x) > 0 for x ≠ 0 (SPD via the outlet Dirichlet condition).
	s := solver(t, 5, 5, 5, DefaultParams())
	n := 125
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i*(trial+2)) + float64(trial))
		}
		ax := make([]float64, n)
		s.applyNegLaplacian(ax, x)
		var xax float64
		for i := range x {
			xax += x[i] * ax[i]
		}
		if xax <= 0 {
			t.Fatalf("trial %d: x·Ax = %v, not positive", trial, xax)
		}
	}
}

func TestWallPressureInteriorZero(t *testing.T) {
	m, _ := mesh.NewMesh(9, 9, 9, 1e-3, 1e-3, 1e-3)
	g, err := mesh.Decompose(m, 27) // 3×3×3: rank at (1,1,1) is interior
	if err != nil {
		t.Fatal(err)
	}
	interior := g.RankAt(1, 1, 1)
	s, err := NewSolver(g.Part(interior), DefaultParams(), field.SeqComm{})
	if err != nil {
		t.Fatal(err)
	}
	if wp := s.WallPressure(); wp != 0 {
		t.Fatalf("interior partition wall pressure %v", wp)
	}
}

func TestWallVelocityCouplingAffectsFlow(t *testing.T) {
	// Setting a wall velocity (the FSI feedback) must change the
	// solution relative to a rigid wall.
	p := DefaultParams()
	p.Dt = 2e-4
	rigid := solver(t, 8, 8, 10, p)
	moving := solver(t, 8, 8, 10, p)
	moving.SetWallVelocity(0.01)
	for i := 0; i < 3; i++ {
		if _, err := rigid.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := moving.Step(); err != nil {
			t.Fatal(err)
		}
	}
	diff := 0.0
	for i := range rigid.U.Data {
		diff += math.Abs(rigid.U.Data[i] - moving.U.Data[i])
	}
	if diff == 0 {
		t.Fatal("wall velocity had no effect on the flow")
	}
}

func TestStepDeterministic(t *testing.T) {
	p := DefaultParams()
	run := func() []float64 {
		s := solver(t, 8, 8, 10, p)
		for i := 0; i < 5; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, s.W.Interior())
		s.W.CopyInterior(out)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic solver at cell %d", i)
		}
	}
}

func TestStepAllocatesNothing(t *testing.T) {
	s := solver(t, 8, 8, 12, DefaultParams())
	step := func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if a := testing.AllocsPerRun(3, step); a != 0 {
		t.Fatalf("Step allocates %v heap objects", a)
	}
}
