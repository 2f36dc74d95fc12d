// Package linalg provides the dense-vector kernels and the CSR sparse
// matrix used by the solvers: exactly the BLAS-1 plus SpMV working set
// of a Krylov-based FE code.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot lengths %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: axpy lengths %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Aypx computes y = x + alpha*y (the CG direction update).
func Aypx(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: aypx lengths %d != %d", len(x), len(y)))
	}
	for i := range y {
		y[i] = x[i] + alpha*y[i]
	}
}

// Copy copies src into dst.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: copy lengths %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Norm2 returns the Euclidean norm.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// CSR is a compressed sparse row matrix.
type CSR struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// RowPtr has Rows+1 entries; row i's nonzeros live in
	// ColIdx/Vals[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int
	// ColIdx holds column indices, sorted within each row.
	ColIdx []int
	// Vals holds the nonzero values.
	Vals []float64
}

// Triplet is one (row, col, value) matrix entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from triplets, summing duplicates.
// Triplets may arrive in any order.
func NewCSR(rows, cols int, trips []Triplet) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: matrix dimensions %d×%d", rows, cols)
	}
	// Count entries per row after dedup: first bucket by row.
	perRow := make([][]Triplet, rows)
	for _, t := range trips {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("linalg: triplet (%d,%d) outside %d×%d", t.Row, t.Col, rows, cols)
		}
		perRow[t.Row] = append(perRow[t.Row], t)
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		row := perRow[r]
		// Insertion-sort by column (rows are short in FE stencils),
		// summing duplicates.
		cols := make([]int, 0, len(row))
		vals := make([]float64, 0, len(row))
		for _, t := range row {
			pos := len(cols)
			dup := false
			for i, c := range cols {
				if c == t.Col {
					vals[i] += t.Val
					dup = true
					break
				}
				if c > t.Col {
					pos = i
					break
				}
			}
			if dup {
				continue
			}
			cols = append(cols, 0)
			vals = append(vals, 0)
			copy(cols[pos+1:], cols[pos:])
			copy(vals[pos+1:], vals[pos:])
			cols[pos] = t.Col
			vals[pos] = t.Val
		}
		m.ColIdx = append(m.ColIdx, cols...)
		m.Vals = append(m.Vals, vals...)
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	return m, nil
}

// NNZ returns the stored nonzero count.
func (m *CSR) NNZ() int { return len(m.Vals) }

// MulVec computes dst = M·src.
func (m *CSR) MulVec(dst, src []float64) {
	if len(src) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: spmv dims: matrix %d×%d, src %d, dst %d",
			m.Rows, m.Cols, len(src), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for idx := m.RowPtr[r]; idx < m.RowPtr[r+1]; idx++ {
			s += m.Vals[idx] * src[m.ColIdx[idx]]
		}
		dst[r] = s
	}
}

// Diag extracts the matrix diagonal (zero where absent).
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for idx := m.RowPtr[r]; idx < m.RowPtr[r+1]; idx++ {
			if m.ColIdx[idx] == r {
				d[r] = m.Vals[idx]
				break
			}
		}
	}
	return d
}

// At returns element (r, c); zero if not stored.
func (m *CSR) At(r, c int) float64 {
	for idx := m.RowPtr[r]; idx < m.RowPtr[r+1]; idx++ {
		if m.ColIdx[idx] == c {
			return m.Vals[idx]
		}
	}
	return 0
}

// IsSymmetric checks structural and numerical symmetry to tolerance.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		for idx := m.RowPtr[r]; idx < m.RowPtr[r+1]; idx++ {
			c := m.ColIdx[idx]
			if math.Abs(m.Vals[idx]-m.At(c, r)) > tol {
				return false
			}
		}
	}
	return true
}
