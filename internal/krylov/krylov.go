// Package krylov implements the iterative solver of the Alya-like
// code: preconditioned conjugate gradients, the pressure Poisson
// workhorse.
//
// The solver is written against two small interfaces so the same code
// runs sequentially (tests, reference solutions) and distributed (dot
// products become MPI allreduces, operator application includes a halo
// exchange).
package krylov

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Operator applies a linear operator: dst = A·src. Distributed
// implementations exchange halos before applying the local stencil.
type Operator interface {
	Apply(dst, src []float64)
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc func(dst, src []float64)

// Apply implements Operator.
func (f OperatorFunc) Apply(dst, src []float64) { f(dst, src) }

// CSROperator adapts a linalg.CSR matrix to the Operator interface.
type CSROperator struct{ M *linalg.CSR }

// Apply implements Operator.
func (o CSROperator) Apply(dst, src []float64) { o.M.MulVec(dst, src) }

// Options configures a solve.
type Options struct {
	// MaxIter caps iterations; 0 means 10·n.
	MaxIter int
	// Tol is the relative residual tolerance ‖r‖/‖b‖; 0 means 1e-8.
	Tol float64
	// Dot computes global inner products. Nil means the sequential
	// linalg.Dot; distributed callers install the allreduce version.
	Dot func(a, b []float64) float64
	// Precond applies the preconditioner: dst = M⁻¹·src. Nil means
	// identity.
	Precond func(dst, src []float64)
}

func (o Options) withDefaults(n int) Options {
	if o.MaxIter == 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.Dot == nil {
		o.Dot = linalg.Dot
	}
	if o.Precond == nil {
		o.Precond = linalg.Copy
	}
	return o
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

// JacobiPrecond builds a diagonal (Jacobi) preconditioner from the
// operator diagonal. Zero diagonal entries pass through unscaled.
func JacobiPrecond(diag []float64) func(dst, src []float64) {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d != 0 {
			inv[i] = 1 / d
		} else {
			inv[i] = 1
		}
	}
	return func(dst, src []float64) {
		for i := range dst {
			dst[i] = inv[i] * src[i]
		}
	}
}

// CG solves A·x = b for symmetric positive (semi-)definite A with
// preconditioned conjugate gradients. x holds the initial guess on
// entry and the solution on return.
func CG(a Operator, b, x []float64, opts Options) (Result, error) {
	n := len(b)
	if len(x) != n {
		return Result{}, fmt.Errorf("krylov: cg dims b=%d x=%d", n, len(x))
	}
	o := opts.withDefaults(n)

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	// r = b - A·x
	a.Apply(ap, x)
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	bnorm := math.Sqrt(o.Dot(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	o.Precond(z, r)
	copy(p, z)
	rz := o.Dot(r, z)

	res := math.Sqrt(o.Dot(r, r)) / bnorm
	if res <= o.Tol {
		return Result{Iterations: 0, Residual: res, Converged: true}, nil
	}
	for it := 1; it <= o.MaxIter; it++ {
		a.Apply(ap, p)
		pap := o.Dot(p, ap)
		if pap == 0 || math.IsNaN(pap) {
			return Result{Iterations: it, Residual: res, Converged: false},
				fmt.Errorf("krylov: cg breakdown, pᵀAp = %v at iteration %d", pap, it)
		}
		alpha := rz / pap
		linalg.Axpy(alpha, p, x)
		linalg.Axpy(-alpha, ap, r)
		res = math.Sqrt(o.Dot(r, r)) / bnorm
		if res <= o.Tol {
			return Result{Iterations: it, Residual: res, Converged: true}, nil
		}
		o.Precond(z, r)
		rzNew := o.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		linalg.Aypx(beta, z, p)
	}
	return Result{Iterations: o.MaxIter, Residual: res, Converged: false}, nil
}
