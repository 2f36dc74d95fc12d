package solid

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

func TestLameParameters(t *testing.T) {
	p := Params{E: 1e5, NuP: 0.25}
	lambda, mu := p.Lame()
	// For ν=0.25: μ = E/2.5 = 4e4, λ = E·0.25/(1.25·0.5) = 4e4.
	if math.Abs(mu-4e4) > 1 || math.Abs(lambda-4e4) > 1 {
		t.Fatalf("λ=%v μ=%v", lambda, mu)
	}
}

func TestWaveSpeedPositive(t *testing.T) {
	p := DefaultParams()
	if c := p.WaveSpeed(); c <= 0 || math.IsNaN(c) {
		t.Fatalf("wave speed %v", c)
	}
}

func TestCFLGuard(t *testing.T) {
	m, _ := mesh.NewMesh(6, 6, 6, 1e-3, 1e-3, 1e-3)
	g, _ := mesh.Decompose(m, 1)
	p := DefaultParams()
	p.Dt = 1.0 // wildly unstable
	if _, err := NewSolver(g.Part(0), p, field.SeqComm{}); err == nil {
		t.Fatal("unstable dt accepted")
	}
}

func TestValidation(t *testing.T) {
	m, _ := mesh.NewMesh(6, 6, 6, 1e-3, 1e-3, 1e-3)
	g, _ := mesh.Decompose(m, 1)
	for _, mutate := range []func(*Params){
		func(p *Params) { p.Dt = 0 },
		func(p *Params) { p.Rho = 0 },
		func(p *Params) { p.E = 0 },
	} {
		p := DefaultParams()
		mutate(&p)
		if _, err := NewSolver(g.Part(0), p, field.SeqComm{}); err == nil {
			t.Fatal("bad params accepted")
		}
	}
}

func TestRestStaysAtRest(t *testing.T) {
	// No load, zero initial displacement: the wall must not move.
	s := solver(t, 6, 6, 8, DefaultParams())
	for i := 0; i < 10; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxDisplacement != 0 {
			t.Fatalf("step %d: spontaneous displacement %v", i, st.MaxDisplacement)
		}
	}
}

func TestTractionDeformsWall(t *testing.T) {
	s := solver(t, 6, 6, 8, DefaultParams())
	s.SetTraction(1000) // 1 kPa pulse
	var disp float64
	for i := 0; i < 20; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		disp = st.MaxDisplacement
		if math.IsNaN(disp) {
			t.Fatalf("step %d: NaN displacement", i)
		}
	}
	if disp <= 0 {
		t.Fatal("traction produced no displacement")
	}
}

func TestStiffnessResists(t *testing.T) {
	// A stiffer wall deflects less under the same load.
	soft := DefaultParams()
	stiff := DefaultParams()
	stiff.E *= 4
	stiff.Dt /= 2 // keep CFL margin
	run := func(p Params) float64 {
		s := solver(t, 6, 6, 8, p)
		s.SetTraction(1000)
		last := 0.0
		for i := 0; i < 40; i++ {
			st, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			last = st.MaxDisplacement
		}
		return last
	}
	dSoft, dStiff := run(soft), run(stiff)
	if dStiff >= dSoft {
		t.Fatalf("stiff wall deflects more: soft %v, stiff %v", dSoft, dStiff)
	}
}

func TestDampingBoundsMotion(t *testing.T) {
	// With damping, oscillation under a constant load must stay
	// bounded over many steps (no numerical blow-up).
	s := solver(t, 6, 6, 8, DefaultParams())
	s.SetTraction(500)
	var maxSeen float64
	for i := 0; i < 200; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxDisplacement > maxSeen {
			maxSeen = st.MaxDisplacement
		}
		if math.IsNaN(st.MaxDisplacement) || st.MaxDisplacement > 1 {
			t.Fatalf("step %d: blow-up, displacement %v", i, st.MaxDisplacement)
		}
	}
	if maxSeen <= 0 {
		t.Fatal("no motion at all")
	}
}

func TestMeanRadialVelocityReported(t *testing.T) {
	s := solver(t, 6, 6, 8, DefaultParams())
	s.SetTraction(1000)
	moved := false
	for i := 0; i < 20; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.MeanRadialVelocity != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("radial velocity never reported under load")
	}
}

func TestStepDeterministic(t *testing.T) {
	run := func() float64 {
		s := solver(t, 6, 6, 8, DefaultParams())
		s.SetTraction(750)
		var last StepStats
		for i := 0; i < 15; i++ {
			st, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			last = st
		}
		return last.MaxDisplacement
	}
	if run() != run() {
		t.Fatal("solid solver nondeterministic")
	}
}

func TestStepAllocatesNothing(t *testing.T) {
	s := solver(t, 12, 3, 8, DefaultParams())
	s.SetTraction(1000)
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
