package krylov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// lap1d builds the SPD 1D Laplacian with Dirichlet ends.
func lap1d(n int) *linalg.CSR {
	var tr []linalg.Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, linalg.Triplet{Row: i, Col: i, Val: 2})
		if i > 0 {
			tr = append(tr, linalg.Triplet{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			tr = append(tr, linalg.Triplet{Row: i, Col: i + 1, Val: -1})
		}
	}
	m, err := linalg.NewCSR(n, n, tr)
	if err != nil {
		panic(err)
	}
	return m
}

func residual(m *linalg.CSR, b, x []float64) float64 {
	r := make([]float64, len(b))
	m.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return linalg.Norm2(r) / (linalg.Norm2(b) + 1e-300)
}

func TestCGSolvesLaplacian(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100} {
		m := lap1d(n)
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i))
		}
		x := make([]float64, n)
		res, err := CG(CSROperator{M: m}, b, x, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: not converged after %d iters (res %v)", n, res.Iterations, res.Residual)
		}
		if r := residual(m, b, x); r > 1e-8 {
			t.Fatalf("n=%d: true residual %v", n, r)
		}
	}
}

func TestCGExactInNSteps(t *testing.T) {
	// CG on an n×n SPD system converges in at most n iterations
	// (exactly, in exact arithmetic; with a small tolerance here).
	n := 25
	m := lap1d(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	res, err := CG(CSROperator{M: m}, b, x, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > n+2 {
		t.Fatalf("CG took %d iterations on a %d×%d system", res.Iterations, n, n)
	}
}

func TestJacobiPreconditionerHelps(t *testing.T) {
	// A badly scaled diagonal (symmetric: D + L with unit couplings,
	// diagonally dominant, hence SPD): Jacobi should cut iterations.
	n := 200
	var tr []linalg.Triplet
	for i := 0; i < n; i++ {
		scale := 1.0 + 99*float64(i)/float64(n-1)
		tr = append(tr, linalg.Triplet{Row: i, Col: i, Val: 2 * scale})
		if i > 0 {
			tr = append(tr, linalg.Triplet{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			tr = append(tr, linalg.Triplet{Row: i, Col: i + 1, Val: -1})
		}
	}
	m, err := linalg.NewCSR(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Fatal("test matrix must be symmetric for CG")
	}
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range b {
		b[i] = rng.Float64()
	}
	plain := make([]float64, n)
	resPlain, err := CG(CSROperator{M: m}, b, plain, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]float64, n)
	resPre, err := CG(CSROperator{M: m}, b, pre, Options{
		Tol:     1e-8,
		Precond: JacobiPrecond(m.Diag()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resPlain.Converged || !resPre.Converged {
		t.Fatalf("convergence: plain %v, precond %v", resPlain.Converged, resPre.Converged)
	}
	if resPre.Iterations > resPlain.Iterations {
		t.Fatalf("Jacobi hurt: %d vs %d iterations", resPre.Iterations, resPlain.Iterations)
	}
}

func TestCGWarmStart(t *testing.T) {
	n := 50
	m := lap1d(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 3)
	}
	cold := make([]float64, n)
	resCold, err := CG(CSROperator{M: m}, b, cold, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// Restart from the solution: should converge immediately.
	resWarm, err := CG(CSROperator{M: m}, b, cold, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.Iterations > 2 {
		t.Fatalf("warm start took %d iterations (cold took %d)", resWarm.Iterations, resCold.Iterations)
	}
}

func TestCGCustomDot(t *testing.T) {
	// A custom dot that mimics a distributed reduction (sums in two
	// halves) must give the same answer.
	n := 64
	m := lap1d(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	calls := 0
	x := make([]float64, n)
	res, err := CG(CSROperator{M: m}, b, x, Options{
		Tol: 1e-10,
		Dot: func(a, c []float64) float64 {
			calls++
			return linalg.Dot(a[:n/2], c[:n/2]) + linalg.Dot(a[n/2:], c[n/2:])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged with custom dot")
	}
	if calls == 0 {
		t.Fatal("custom dot never called")
	}
	if r := residual(m, b, x); r > 1e-8 {
		t.Fatalf("true residual %v", r)
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	m := lap1d(4)
	if _, err := CG(CSROperator{M: m}, make([]float64, 4), make([]float64, 3), Options{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := lap1d(10)
	x := make([]float64, 10)
	res, err := CG(CSROperator{M: m}, make([]float64, 10), x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
}

func TestCGMaxIter(t *testing.T) {
	m := lap1d(400)
	b := make([]float64, 400)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 400)
	res, err := CG(CSROperator{M: m}, b, x, Options{MaxIter: 3, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 3 {
		t.Fatalf("maxiter not honoured: %+v", res)
	}
}

func TestOperatorFunc(t *testing.T) {
	// Identity via OperatorFunc: CG converges in one iteration.
	n := 8
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	x := make([]float64, n)
	res, err := CG(OperatorFunc(func(dst, src []float64) { copy(dst, src) }), b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 1 {
		t.Fatalf("identity solve: %+v", res)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-10 {
			t.Fatalf("x = %v", x)
		}
	}
}
