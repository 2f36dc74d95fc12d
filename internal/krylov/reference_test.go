package krylov

import (
	"fmt"
	"math"
)

// This file keeps CG in its three-pass form — pᵀAp as its own dot, x
// and r advanced by two axpy passes, ‖r‖² as another dot — as the
// reference the fused Solve must match bit for bit: the same x, the
// same Result and the same values handed to Sum in the same order. It
// ignores the value the operator returns.

// refSolve is Solve with every vector pass separate.
func (c *CG) refSolve(b, x []float64) (Result, error) {
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
	r, p, ap := make([]float64, n), make([]float64, n), make([]float64, n)
	c.A(ap, x)
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	bnorm := math.Sqrt(c.refInner(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	copy(p, r)
	rz := c.refInner(r, r)
	res := math.Sqrt(rz) / bnorm
	if res <= tol {
		return Result{Iterations: 0, Residual: res, Converged: true}, nil
	}
	for it := 1; it <= maxIter; it++ {
		c.A(ap, p)
		pap := c.refInner(p, ap)
		if pap == 0 || math.IsNaN(pap) {
			return Result{Iterations: it, Residual: res, Converged: false},
				fmt.Errorf("krylov: cg breakdown, pᵀAp = %v at iteration %d", pap, it)
		}
		alpha := rz / pap
		refAxpy(alpha, p, x)
		refAxpy(-alpha, ap, r)
		rzNew := c.refInner(r, r)
		res = math.Sqrt(rzNew) / bnorm
		if res <= tol {
			return Result{Iterations: it, Residual: res, Converged: true}, nil
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = r[i] + float64(beta*p[i])
		}
	}
	return Result{Iterations: maxIter, Residual: res, Converged: false}, nil
}

// refInner is the global inner product of a and b.
func (c *CG) refInner(a, b []float64) float64 {
	if c.Sum == nil {
		return dot(a, b)
	}
	return c.Sum(dot(a, b))
}

// refAxpy computes y += alpha*x.
func refAxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("krylov: axpy lengths %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}
