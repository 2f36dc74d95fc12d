package field

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mesh"
)

// This file keeps the pointwise forms of the field kernels — every cell
// addressed through Idx, as the kernels did before they indexed Data on
// the stride contract — as the reference the flat kernels must match bit
// for bit.

func at(f *Field, i, j, k int) float64     { return f.Data[f.Idx(i, j, k)] }
func set(f *Field, i, j, k int, v float64) { f.Data[f.Idx(i, j, k)] = v }

func refCopyInterior(f *Field, dst []float64) {
	n := 0
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				dst[n] = at(f, i, j, k)
				n++
			}
		}
	}
}

func refSetInterior(f *Field, src []float64) {
	n := 0
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				set(f, i, j, k, src[n])
				n++
			}
		}
	}
}

// refFace visits a face's ghost cells in halo-buffer order, passing
// each ghost's coordinates and those of the owned cell beside it.
func refFace(f *Field, face mesh.Axis, visit func(gi, gj, gk, ii, ij, ik int)) {
	switch face {
	case mesh.XMinus, mesh.XPlus:
		g, in := -1, 0
		if face == mesh.XPlus {
			g, in = f.NX, f.NX-1
		}
		for k := 0; k < f.NZ; k++ {
			for j := 0; j < f.NY; j++ {
				visit(g, j, k, in, j, k)
			}
		}
	case mesh.YMinus, mesh.YPlus:
		g, in := -1, 0
		if face == mesh.YPlus {
			g, in = f.NY, f.NY-1
		}
		for k := 0; k < f.NZ; k++ {
			for i := 0; i < f.NX; i++ {
				visit(i, g, k, i, in, k)
			}
		}
	default:
		g, in := -1, 0
		if face == mesh.ZPlus {
			g, in = f.NZ, f.NZ-1
		}
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				visit(i, j, g, i, j, in)
			}
		}
	}
}

func refPackFace(f *Field, face mesh.Axis) []float64 {
	var buf []float64
	refFace(f, face, func(_, _, _, i, j, k int) { buf = append(buf, at(f, i, j, k)) })
	return buf
}

func refUnpackGhost(f *Field, face mesh.Axis, buf []float64) {
	n := 0
	refFace(f, face, func(i, j, k, _, _, _ int) { set(f, i, j, k, buf[n]); n++ })
}

// ghostCoords counts how many of (i, j, k) lie in the ghost layer: 0 for
// an owned cell, 1 on a face layer, 2 on an edge, 3 at a corner.
func ghostCoords(f *Field, i, j, k int) int {
	n := 0
	for _, c := range [3][2]int{{i, f.NX}, {j, f.NY}, {k, f.NZ}} {
		if c[0] < 0 || c[0] == c[1] {
			n++
		}
	}
	return n
}

func refLaplace(f *Field, i, j, k int, hx, hy, hz float64) float64 {
	c := at(f, i, j, k)
	return (at(f, i-1, j, k)-2*c+at(f, i+1, j, k))/(hx*hx) +
		(at(f, i, j-1, k)-2*c+at(f, i, j+1, k))/(hy*hy) +
		(at(f, i, j, k-1)-2*c+at(f, i, j, k+1))/(hz*hz)
}

// oddDims are the partition shapes the kernel tests run on: odd,
// non-cubic, and 1 cell thick along each axis in turn.
var oddDims = [][3]int{{3, 4, 5}, {1, 4, 5}, {3, 1, 5}, {3, 4, 1}, {1, 1, 1}, {2, 7, 3}, {5, 2, 1}}

// filled returns a field of the given shape whose every value, ghosts
// included, is distinct and not a short binary fraction.
func filled(t *testing.T, d [3]int) *Field {
	f := New(part(t, d[0], d[1], d[2]))
	for m := range f.Data {
		f.Data[m] = math.Sin(float64(m)+0.25) * 1e3
	}
	return f
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d != %d", len(a), len(b))
	}
	for m := range a {
		if math.Float64bits(a[m]) != math.Float64bits(b[m]) {
			return fmt.Errorf("index %d: %v != %v", m, a[m], b[m])
		}
	}
	return nil
}

func TestKernelsMatchPointwise(t *testing.T) {
	for _, d := range oddDims {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			matchPointwise(t, func() *Field { return filled(t, d) }, 0.3, 0.7, 1.1)
		})
	}
}

// FuzzKernelsMatchPointwise runs every flat kernel against its
// pointwise reference on a fuzzed shape of 1–9 cells per axis, fields
// of seeded random values, ghosts included, and seeded cell widths.
// The seed corpus is TestKernelsMatchPointwise's seven shapes.
func FuzzKernelsMatchPointwise(f *testing.F) {
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, seed uint64) {
		span := func(v uint8) int { return 1 + (int(v)+8)%9 }
		d := [3]int{span(nx), span(ny), span(nz)}
		rng := rand.New(rand.NewPCG(seed, seed))
		hx, hy, hz := 0.1+rng.Float64(), 0.1+rng.Float64(), 0.1+rng.Float64()
		matchPointwise(t, func() *Field {
			f := New(part(t, d[0], d[1], d[2]))
			rng := rand.New(rand.NewPCG(seed, seed))
			for m := range f.Data {
				f.Data[m] = rng.NormFloat64() * 1e3
			}
			return f
		}, hx, hy, hz)
	})
}

// matchPointwise runs every flat kernel and its pointwise reference on
// fields from fresh, which returns an equal new field on every call,
// and fails t at the first bit that differs.
func matchPointwise(t *testing.T, fresh func() *Field, hx, hy, hz float64) {
	t.Helper()
	f := fresh()
	got, want := make([]float64, f.Interior()), make([]float64, f.Interior())
	f.CopyInterior(got)
	refCopyInterior(f, want)
	if err := sameBits(got, want); err != nil {
		t.Fatalf("CopyInterior: %v", err)
	}

	src := make([]float64, f.Interior())
	for n := range src {
		src[n] = -float64(n) - 0.125
	}
	g, r := fresh(), fresh()
	g.SetInterior(src)
	refSetInterior(r, src)
	if err := sameBits(g.Data, r.Data); err != nil {
		t.Fatalf("SetInterior: %v", err)
	}

	for face := mesh.XMinus; face <= mesh.ZPlus; face++ {
		want := refPackFace(f, face)
		got := make([]float64, len(want))
		f.PackFace(face, got)
		if err := sameBits(got, want); err != nil {
			t.Fatalf("PackFace %v: %v", face, err)
		}
		g, r := fresh(), fresh()
		g.UnpackGhost(face, src[:len(want)])
		refUnpackGhost(r, face, src[:len(want)])
		if err := sameBits(g.Data, r.Data); err != nil {
			t.Fatalf("UnpackGhost %v: %v", face, err)
		}
	}

	sy, sz := f.Strides()
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				got, want := Laplace(f.Data, f.Idx(i, j, k), sy, sz, hx, hy, hz), refLaplace(f, i, j, k, hx, hy, hz)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Laplace at (%d,%d,%d): %v != %v", i, j, k, got, want)
				}
			}
		}
	}

	g = fresh()
	g.ClearEdges()
	for k := -1; k <= f.NZ; k++ {
		for j := -1; j <= f.NY; j++ {
			for i := -1; i <= f.NX; i++ {
				want := at(f, i, j, k)
				if ghostCoords(f, i, j, k) >= 2 {
					want = 0
				}
				if got := at(g, i, j, k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ClearEdges at (%d,%d,%d): %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}
