package krylov

import (
	"math"
	"math/rand/v2"
	"testing"
)

// stencil1D returns a random symmetric, strictly diagonally dominant
// (so SPD) tridiagonal operator on n unknowns: coupling c[i] between
// i and i+1, diagonal c[i-1] + c[i] + d[i].
func stencil1D(rng *rand.Rand, n int) func(dst, src []float64) float64 {
	c, d := make([]float64, n), make([]float64, n)
	for i := range c {
		c[i], d[i] = rng.Float64(), 0.5+rng.Float64()
	}
	return func(dst, src []float64) float64 {
		for i := range dst {
			v := d[i] * src[i]
			if i > 0 {
				v += c[i-1] * (src[i] - src[i-1])
			}
			if i < n-1 {
				v += c[i] * (src[i] - src[i+1])
			}
			dst[i] = v
		}
		return dot(src, dst)
	}
}

// stencil3D returns a random SPD 7-point operator on an nx×ny×nz box
// with one coupling per axis and a random positive shift per cell.
func stencil3D(rng *rand.Rand, nx, ny, nz int) func(dst, src []float64) float64 {
	cx, cy, cz := rng.Float64(), rng.Float64(), rng.Float64()
	d := make([]float64, nx*ny*nz)
	for i := range d {
		d[i] = 0.5 + rng.Float64()
	}
	return func(dst, src []float64) float64 {
		for k := range nz {
			for j := range ny {
				for i := range nx {
					m := i + nx*(j+ny*k)
					v := d[m] * src[m]
					for _, nb := range [6]struct {
						ok   bool
						at   int
						coef float64
					}{
						{i > 0, m - 1, cx}, {i < nx-1, m + 1, cx},
						{j > 0, m - nx, cy}, {j < ny-1, m + nx, cy},
						{k > 0, m - nx*ny, cz}, {k < nz-1, m + nx*ny, cz},
					} {
						if nb.ok {
							v += nb.coef * (src[m] - src[nb.at])
						}
					}
					dst[m] = v
				}
			}
		}
		return dot(src, dst)
	}
}

// FuzzCG solves up to four random SPD systems, one per shape byte,
// through the same two CG values: one with an identity Sum hook that
// records what it is handed and one without. Sizes change from solve to
// solve, so the work vectors are reused and regrown. Each solve starts
// warm from a random guess and must converge to Tol with a true
// residual to match; the hooked solve must give the unhooked one's
// bits and call Sum exactly 2k+2 times in k iterations. The three-pass
// reference, hooked the same way, must give the same x bits, the same
// Result and the same sequence of Sum arguments.
func FuzzCG(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shapes []byte) {
		rng := rand.New(rand.NewPCG(seed, seed))
		var sums, refSums []float64
		hooked := CG{Tol: 1e-9, Sum: func(v float64) float64 { sums = append(sums, v); return v }}
		ref := CG{Tol: 1e-9, Sum: func(v float64) float64 { refSums = append(refSums, v); return v }}
		plain := CG{Tol: 1e-9}
		for _, s := range shapes[:min(len(shapes), 4)] {
			var n int
			var op func(dst, src []float64) float64
			if s&1 == 1 {
				nx, ny, nz := 1+int(s>>1)%6, 1+int(s>>3)%6, 1+int(s>>5)%6
				n, op = nx*ny*nz, stencil3D(rng, nx, ny, nz)
			} else {
				n = 1 + int(s>>1)
				op = stencil1D(rng, n)
			}
			b, x0 := make([]float64, n), make([]float64, n)
			for i := range b {
				b[i], x0[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
			}
			hooked.A, plain.A, ref.A = op, op, op
			xh, xp, xr := append([]float64(nil), x0...), append([]float64(nil), x0...), append([]float64(nil), x0...)
			sums, refSums = sums[:0], refSums[:0]
			rh, err := hooked.Solve(b, xh)
			if err != nil {
				t.Fatalf("shape %#x n=%d: %v", s, n, err)
			}
			rp, err := plain.Solve(b, xp)
			if err != nil {
				t.Fatalf("shape %#x n=%d: %v", s, n, err)
			}
			rr, err := ref.refSolve(b, xr)
			if err != nil {
				t.Fatalf("shape %#x n=%d: reference: %v", s, n, err)
			}
			if !rh.Converged || rh.Residual > hooked.Tol {
				t.Fatalf("shape %#x n=%d: %+v", s, n, rh)
			}
			if rh != rp || rh != rr {
				t.Fatalf("shape %#x n=%d: hooked %+v, plain %+v, reference %+v", s, n, rh, rp, rr)
			}
			for i := range xh {
				if math.Float64bits(xh[i]) != math.Float64bits(xp[i]) {
					t.Fatalf("shape %#x n=%d: x[%d] hooked %v, plain %v", s, n, i, xh[i], xp[i])
				}
				if math.Float64bits(xh[i]) != math.Float64bits(xr[i]) {
					t.Fatalf("shape %#x n=%d: x[%d] fused %v, reference %v", s, n, i, xh[i], xr[i])
				}
			}
			if want := 2*rh.Iterations + 2; len(sums) != want {
				t.Fatalf("shape %#x n=%d: Sum called %d times in %d iterations, want %d", s, n, len(sums), rh.Iterations, want)
			}
			if len(sums) != len(refSums) {
				t.Fatalf("shape %#x n=%d: Sum called %d times, reference %d", s, n, len(sums), len(refSums))
			}
			for i := range sums {
				if math.Float64bits(sums[i]) != math.Float64bits(refSums[i]) {
					t.Fatalf("shape %#x n=%d: Sum call %d handed %v, reference %v", s, n, i, sums[i], refSums[i])
				}
			}
			r := make([]float64, n)
			op(r, xh)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			if res := math.Sqrt(dot(r, r) / dot(b, b)); res > 100*hooked.Tol {
				t.Fatalf("shape %#x n=%d: true residual %v, recurrence %v", s, n, res, rh.Residual)
			}
		}
	})
}
