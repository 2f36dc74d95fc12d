package krylov

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// lap1d applies the SPD 1D Laplacian [-1 2 -1] with Dirichlet ends.
func lap1d(dst, src []float64) float64 {
	n := len(src)
	for i := range dst {
		v := 2 * src[i]
		if i > 0 {
			v -= src[i-1]
		}
		if i < n-1 {
			v -= src[i+1]
		}
		dst[i] = v
	}
	return dot(src, dst)
}

func residual(b, x []float64) float64 {
	r := make([]float64, len(b))
	lap1d(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return math.Sqrt(dot(r, r)) / (math.Sqrt(dot(b, b)) + 1e-300)
}

func TestCGSolvesLaplacian(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100} {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i))
		}
		x := make([]float64, n)
		cg := CG{A: lap1d, Tol: 1e-10}
		res, err := cg.Solve(b, x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: not converged after %d iters (res %v)", n, res.Iterations, res.Residual)
		}
		if r := residual(b, x); r > 1e-8 {
			t.Fatalf("n=%d: true residual %v", n, r)
		}
	}
}

func TestCGExactInNSteps(t *testing.T) {
	// CG on an n×n SPD system converges in at most n iterations
	// (exactly, in exact arithmetic; with a small tolerance here).
	n := 25
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	cg := CG{A: lap1d, Tol: 1e-9}
	res, err := cg.Solve(b, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > n+2 {
		t.Fatalf("CG took %d iterations on a %d×%d system", res.Iterations, n, n)
	}
}

func TestCGWarmStart(t *testing.T) {
	n := 50
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 3)
	}
	cold := make([]float64, n)
	cg := CG{A: lap1d, Tol: 1e-10}
	resCold, err := cg.Solve(b, cold)
	if err != nil {
		t.Fatal(err)
	}
	// Restart from the solution, reusing the work vectors: should
	// converge immediately.
	resWarm, err := cg.Solve(b, cold)
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.Iterations > 2 {
		t.Fatalf("warm start took %d iterations (cold took %d)", resWarm.Iterations, resCold.Iterations)
	}
}

func TestCGCustomDot(t *testing.T) {
	// The Sum hook, which makes each inner product global, sees every
	// one of them, and an identity hook gives the same bits as none.
	n := 64
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + math.Sin(float64(i))
	}
	plain := make([]float64, n)
	resPlain, err := (&CG{A: lap1d, Tol: 1e-10}).Solve(b, plain)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hooked := make([]float64, n)
	resHooked, err := (&CG{A: lap1d, Tol: 1e-10, Sum: func(v float64) float64 {
		calls++
		return v
	}}).Solve(b, hooked)
	if err != nil {
		t.Fatal(err)
	}
	if !resHooked.Converged || resHooked != resPlain {
		t.Fatalf("hooked %+v, plain %+v", resHooked, resPlain)
	}
	// Two setup reductions (‖b‖², ‖r‖²), then pᵀAp and ‖r‖² every
	// iteration; ‖r‖² is rᵀz too, so it is reduced once.
	if want := 2 + 2*resHooked.Iterations; calls != want {
		t.Fatalf("hook called %d times in %d iterations, want %d", calls, resHooked.Iterations, want)
	}
	for i := range plain {
		if math.Float64bits(plain[i]) != math.Float64bits(hooked[i]) {
			t.Fatalf("x[%d]: hooked %v, plain %v", i, hooked[i], plain[i])
		}
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	cg := CG{A: lap1d}
	if _, err := cg.Solve(make([]float64, 4), make([]float64, 3)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestCGZeroRHS(t *testing.T) {
	x := make([]float64, 10)
	cg := CG{A: lap1d}
	res, err := cg.Solve(make([]float64, 10), x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
}

func TestCGMaxIter(t *testing.T) {
	b := make([]float64, 400)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 400)
	cg := CG{A: lap1d, MaxIter: 3, Tol: 1e-14}
	res, err := cg.Solve(b, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 3 {
		t.Fatalf("maxiter not honoured: %+v", res)
	}
}

func TestOperatorFunc(t *testing.T) {
	// Identity as a func operator: CG converges in one iteration.
	n := 8
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	x := make([]float64, n)
	cg := CG{A: func(dst, src []float64) float64 { copy(dst, src); return dot(src, dst) }}
	res, err := cg.Solve(b, x)
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

func TestDot(t *testing.T) {
	if got := dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v", got)
	}
	if got := dot(nil, nil); got != 0 {
		t.Fatalf("empty dot = %v", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	dot([]float64{1}, []float64{1, 2})
}

func TestUpdateAypx(t *testing.T) {
	x, r := []float64{1, 1}, []float64{5, -2}
	if rr := update(2, []float64{3, 4}, []float64{1, -1}, x, r); rr != 9 {
		t.Fatalf("update: ‖r‖² = %v, r = %v", rr, r)
	}
	if x[0] != 7 || x[1] != 9 || r[0] != 3 || r[1] != 0 {
		t.Fatalf("update: x = %v, r = %v", x, r)
	}
	y := []float64{1, 2}
	aypx(3, []float64{10, 20}, y) // y = x + 3y
	if y[0] != 13 || y[1] != 26 {
		t.Fatalf("aypx: %v", y)
	}
}

// TestUpdateMatchesPasses checks the fused update against the two axpy
// passes and the dot it replaces, bit for bit, on vectors of mixed
// magnitudes, whose sums round differently in any other order.
func TestUpdateMatchesPasses(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Ldexp(2*rng.Float64()-1, rng.IntN(40)-20)
		}
		return v
	}
	for trial := range 200 {
		n := rng.IntN(40)
		alpha, p, ap, x, r := math.Ldexp(rng.Float64(), rng.IntN(10)-5), vec(n), vec(n), vec(n), vec(n)
		wx, wr := append([]float64(nil), x...), append([]float64(nil), r...)
		refAxpy(alpha, p, wx)
		refAxpy(-alpha, ap, wr)
		if got, want := update(alpha, p, ap, x, r), dot(wr, wr); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: ‖r‖² %v, passes %v", trial, got, want)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(wx[i]) || math.Float64bits(r[i]) != math.Float64bits(wr[i]) {
				t.Fatalf("trial %d: x[%d], r[%d] = %v, %v; passes %v, %v", trial, i, i, x[i], r[i], wx[i], wr[i])
			}
		}
	}
}

func TestDotBilinearQuick(t *testing.T) {
	f := func(a, b, c []float64) bool {
		n := min(len(a), len(b), len(c))
		a, b, c = a[:n], b[:n], c[:n]
		for _, v := range append(append(append([]float64{}, a...), b...), c...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				return true
			}
		}
		// dot(a, b+c) == dot(a,b) + dot(a,c)
		bc := make([]float64, n)
		for i := range bc {
			bc[i] = b[i] + c[i]
		}
		lhs := dot(a, bc)
		rhs := dot(a, b) + dot(a, c)
		return math.Abs(lhs-rhs) <= 1e-6*(math.Abs(lhs)+math.Abs(rhs)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
