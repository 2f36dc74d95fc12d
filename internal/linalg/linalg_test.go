package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("empty dot = %v", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpyAypxScale(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy: %v", y)
	}
	y = []float64{1, 2}
	Aypx(3, []float64{10, 20}, y) // y = x + 3y
	if y[0] != 13 || y[1] != 26 {
		t.Fatalf("aypx: %v", y)
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if Norm2(v) != 5 {
		t.Fatalf("norm2 = %v", Norm2(v))
	}
}

func TestFillCopy(t *testing.T) {
	v := []float64{2.5, 2.5, 2.5}
	dst := make([]float64, 3)
	Copy(dst, v)
	if dst[1] != 2.5 {
		t.Fatalf("copy: %v", dst)
	}
}

// tridiag builds the 1D Laplacian [-1 2 -1] as triplets.
func tridiag(n int) []Triplet {
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 2})
		if i > 0 {
			tr = append(tr, Triplet{i, i - 1, -1})
		}
		if i < n-1 {
			tr = append(tr, Triplet{i, i + 1, -1})
		}
	}
	return tr
}

func TestCSRBasics(t *testing.T) {
	m, err := NewCSR(4, 4, tridiag(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 10 {
		t.Fatalf("nnz = %d, want 10", m.NNZ())
	}
	if m.At(0, 0) != 2 || m.At(0, 1) != -1 || m.At(0, 2) != 0 {
		t.Fatal("At wrong")
	}
	if !m.IsSymmetric(0) {
		t.Fatal("tridiagonal Laplacian should be symmetric")
	}
	d := m.Diag()
	for i, v := range d {
		if v != 2 {
			t.Fatalf("diag[%d] = %v", i, v)
		}
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	m, err := NewCSR(2, 2, []Triplet{{0, 0, 1}, {0, 0, 2}, {1, 0, 5}, {0, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3 {
		t.Fatalf("duplicate sum: %v", m.At(0, 0))
	}
	if m.IsSymmetric(0) {
		t.Fatal("this matrix is not symmetric")
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("row out of range accepted")
	}
	if _, err := NewCSR(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Fatal("negative col accepted")
	}
	if _, err := NewCSR(-1, 2, nil); err == nil {
		t.Fatal("negative dims accepted")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := NewCSR(3, 3, tridiag(3))
	dst := make([]float64, 3)
	m.MulVec(dst, []float64{1, 1, 1})
	want := []float64{1, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("mulvec = %v, want %v", dst, want)
		}
	}
}

func TestMulVecDimsPanics(t *testing.T) {
	m, _ := NewCSR(3, 3, tridiag(3))
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

func TestCSRColumnsSorted(t *testing.T) {
	// Assembly from shuffled triplets must still give sorted rows.
	m, err := NewCSR(1, 5, []Triplet{{0, 4, 1}, {0, 0, 1}, {0, 2, 1}, {0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := m.RowPtr[0] + 1; i < m.RowPtr[1]; i++ {
		if m.ColIdx[i-1] >= m.ColIdx[i] {
			t.Fatalf("columns not sorted: %v", m.ColIdx)
		}
	}
}

func TestDotBilinearQuick(t *testing.T) {
	f := func(a, b, c []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
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
		lhs := Dot(a, bc)
		rhs := Dot(a, b) + Dot(a, c)
		return math.Abs(lhs-rhs) <= 1e-6*(math.Abs(lhs)+math.Abs(rhs)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
