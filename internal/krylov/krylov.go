// Package krylov implements the iterative solver of the Alya-like
// code: conjugate gradients, the pressure Poisson workhorse.
//
// The operator is a plain function and every inner product passes
// through one scalar reduction hook, so the same code runs sequentially
// (tests, reference solutions) and distributed (the hook is an MPI
// allreduce, the operator application includes a halo exchange).
//
// An iteration walks its vectors twice: the operator returns the local
// pᵀAp of the vector it writes, and one update loop advances x and r
// and sums the local ‖r‖². Each sum adds from 0 in index order, and
// each product is rounded before it is added, so no GOARCH fuses a
// multiply-add and the bits are those of separate dot and axpy passes.
package krylov

import (
	"fmt"
	"math"
)

// CG solves A·x = b for symmetric positive (semi-)definite A with
// unpreconditioned conjugate gradients. It keeps its work vectors
// between solves, so repeated solves of one size allocate nothing.
type CG struct {
	// A applies the operator, dst = A·src, and returns the local
	// srcᵀ·dst: float64(src[i]*dst[i]) summed from 0 in index order.
	// Distributed operators exchange halos before applying the local
	// stencil; Sum makes the returned value global.
	A func(dst, src []float64) float64
	// Sum turns a local inner product into the global one; nil means
	// the local value is global. Distributed callers install an
	// allreduce.
	Sum func(float64) float64
	// MaxIter caps iterations; 0 means 10·n, at least 100.
	MaxIter int
	// Tol is the relative residual tolerance ‖r‖/‖b‖; 0 means 1e-8.
	Tol float64

	r, p, ap []float64
}

// Result reports a solve's outcome.
type Result struct {
	// Iterations performed.
	Iterations int
	// Residual is the final relative residual.
	Residual float64
	// Converged reports whether Tol was reached within MaxIter.
	Converged bool
}

// global turns a local inner product into the global one.
func (c *CG) global(v float64) float64 {
	if c.Sum == nil {
		return v
	}
	return c.Sum(v)
}

// Solve runs CG on b. x holds the initial guess on entry and the
// solution on return.
//
// Without a preconditioner z = r, so rᵀz is ‖r‖²: it is reduced once
// per iteration (and once at setup) and serves both the residual and
// β, so a solve of k iterations makes 2k+2 reductions.
func (c *CG) Solve(b, x []float64) (Result, error) {
	n := len(b)
	if len(x) != n {
		return Result{}, fmt.Errorf("krylov: cg dims b=%d x=%d", n, len(x))
	}
	maxIter, tol := c.MaxIter, c.Tol
	if maxIter == 0 {
		maxIter = max(10*n, 100)
	}
	if tol == 0 {
		tol = 1e-8
	}
	if len(c.r) != n {
		c.r, c.p, c.ap = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	r, p, ap := c.r, c.p, c.ap

	// r = b - A·x; the xᵀAx the operator returns is not needed.
	c.A(ap, x)
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	bnorm := math.Sqrt(c.global(dot(b, b)))
	if bnorm == 0 {
		bnorm = 1
	}
	copy(p, r)
	rz := c.global(dot(r, r))
	res := math.Sqrt(rz) / bnorm
	if res <= tol {
		return Result{Iterations: 0, Residual: res, Converged: true}, nil
	}
	for it := 1; it <= maxIter; it++ {
		pap := c.global(c.A(ap, p))
		if pap == 0 || math.IsNaN(pap) {
			return Result{Iterations: it, Residual: res, Converged: false},
				fmt.Errorf("krylov: cg breakdown, pᵀAp = %v at iteration %d", pap, it)
		}
		alpha := rz / pap
		rzNew := c.global(update(alpha, p, ap, x, r))
		res = math.Sqrt(rzNew) / bnorm
		if res <= tol {
			return Result{Iterations: it, Residual: res, Converged: true}, nil
		}
		beta := rzNew / rz
		rz = rzNew
		aypx(beta, r, p)
	}
	return Result{Iterations: maxIter, Residual: res, Converged: false}, nil
}

// dot returns the local inner product of a and b.
func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("krylov: dot lengths %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// update is CG's solution and residual step in one pass: x += alpha*p,
// r += (-alpha)*ap, and it returns the local ‖r‖² of the new r.
func update(alpha float64, p, ap, x, r []float64) float64 {
	p, ap, r = p[:len(x)], ap[:len(x)], r[:len(x)]
	nalpha, s := -alpha, 0.0
	for i := range x {
		x[i] += float64(alpha * p[i])
		ri := r[i] + float64(nalpha*ap[i])
		r[i] = ri
		s += float64(ri * ri)
	}
	return s
}

// aypx computes y = x + alpha*y (the CG direction update).
func aypx(alpha float64, x, y []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] = x[i] + float64(alpha*y[i])
	}
}
