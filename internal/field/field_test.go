package field

import (
	"testing"

	"repro/internal/mesh"
)

func part(t *testing.T, nx, ny, nz int) mesh.Partition {
	t.Helper()
	m, err := mesh.NewMesh(nx, ny, nz, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mesh.Decompose(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g.Part(0)
}

func TestFieldIndexing(t *testing.T) {
	f := New(part(t, 3, 4, 5))
	if f.Interior() != 60 {
		t.Fatalf("interior = %d", f.Interior())
	}
	if len(f.Data) != 5*6*7 {
		t.Fatalf("storage = %d", len(f.Data))
	}
	// Every (i,j,k) in the ghosted range maps to a distinct slot.
	seen := make(map[int]bool)
	for k := -1; k <= 5; k++ {
		for j := -1; j <= 4; j++ {
			for i := -1; i <= 3; i++ {
				idx := f.Idx(i, j, k)
				if idx < 0 || idx >= len(f.Data) || seen[idx] {
					t.Fatalf("bad index %d at (%d,%d,%d)", idx, i, j, k)
				}
				seen[idx] = true
			}
		}
	}
}

func TestInteriorRoundTrip(t *testing.T) {
	f := New(part(t, 3, 3, 3))
	src := make([]float64, 27)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	f.SetInterior(src)
	dst := make([]float64, 27)
	f.CopyInterior(dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip lost element %d: %v != %v", i, dst[i], src[i])
		}
	}
	// Ghosts must remain zero.
	if f.At(-1, 0, 0) != 0 || f.At(3, 2, 2) != 0 {
		t.Fatal("interior set leaked into ghosts")
	}
}

func TestPackUnpackAllFaces(t *testing.T) {
	// Face cell counts of a 3×4×5 partition: NY·NZ, NX·NZ, NX·NY.
	faces := []struct {
		face  mesh.Axis
		cells int
	}{
		{mesh.XMinus, 20}, {mesh.XPlus, 20}, {mesh.YMinus, 15}, {mesh.YPlus, 15}, {mesh.ZMinus, 12}, {mesh.ZPlus, 12},
	}
	f := New(part(t, 3, 4, 5))
	for k := 0; k < 5; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 3; i++ {
				f.Set(i, j, k, float64(100*i+10*j+k))
			}
		}
	}
	for _, fc := range faces {
		face := fc.face
		buf := make([]float64, fc.cells)
		f.PackFace(face, buf)
		// Unpack into a second field's ghost layer on the opposite
		// side and verify against the original boundary layer — the
		// halo exchange invariant.
		g := New(part(t, 3, 4, 5))
		g.UnpackGhost(face.Opposite(), buf)
		checkGhostMatchesBoundary(t, f, g, face)
	}
}

// checkGhostMatchesBoundary verifies g's ghost layer on face.Opposite()
// equals f's interior boundary layer adjacent to face.
func checkGhostMatchesBoundary(t *testing.T, f, g *Field, face mesh.Axis) {
	t.Helper()
	get := func(fl *Field, i, j, k int) float64 { return fl.At(i, j, k) }
	switch face {
	case mesh.XMinus, mesh.XPlus:
		iSrc, iDst := 0, f.NX
		if face == mesh.XPlus {
			iSrc, iDst = f.NX-1, -1
		}
		for k := 0; k < f.NZ; k++ {
			for j := 0; j < f.NY; j++ {
				if get(f, iSrc, j, k) != get(g, iDst, j, k) {
					t.Fatalf("face %v: mismatch at (%d,%d)", face, j, k)
				}
			}
		}
	case mesh.YMinus, mesh.YPlus:
		jSrc, jDst := 0, f.NY
		if face == mesh.YPlus {
			jSrc, jDst = f.NY-1, -1
		}
		for k := 0; k < f.NZ; k++ {
			for i := 0; i < f.NX; i++ {
				if get(f, i, jSrc, k) != get(g, i, jDst, k) {
					t.Fatalf("face %v: mismatch at (%d,%d)", face, i, k)
				}
			}
		}
	default:
		kSrc, kDst := 0, f.NZ
		if face == mesh.ZPlus {
			kSrc, kDst = f.NZ-1, -1
		}
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				if get(f, i, j, kSrc) != get(g, i, j, kDst) {
					t.Fatalf("face %v: mismatch at (%d,%d)", face, i, j)
				}
			}
		}
	}
}

func TestPackWrongSizePanics(t *testing.T) {
	f := New(part(t, 3, 3, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong buffer size should panic")
		}
	}()
	f.PackFace(mesh.XMinus, make([]float64, 5))
}

func TestSeqComm(t *testing.T) {
	var c SeqComm
	c.Exchange() // no-op
	if c.AllSum(3.5) != 3.5 || c.AllMax(-2) != -2 {
		t.Fatal("SeqComm reductions must be identity")
	}
	c.Charge(1e9, 1e9) // no-op, must not panic
}
