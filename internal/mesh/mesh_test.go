package mesh

import (
	"testing"
)

func mustMesh(t *testing.T, nx, ny, nz int) Mesh {
	t.Helper()
	m, err := NewMesh(nx, ny, nz, 1e-3, 1e-3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeshValidates(t *testing.T) {
	if _, err := NewMesh(0, 1, 1, 1, 1, 1); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewMesh(1, 1, 1, 0, 1, 1); err == nil {
		t.Error("zero cell size accepted")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	m := mustMesh(t, 4, 5, 6)
	seen := make(map[int]bool)
	for k := 0; k < 6; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 4; i++ {
				idx := m.Index(i, j, k)
				if idx < 0 || idx >= m.Cells() {
					t.Fatalf("index out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d", idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != m.Cells() {
		t.Fatalf("covered %d cells of %d", len(seen), m.Cells())
	}
}

func TestAxisOpposite(t *testing.T) {
	for _, a := range []Axis{XMinus, XPlus, YMinus, YPlus, ZMinus, ZPlus} {
		if a.Opposite().Opposite() != a {
			t.Fatalf("opposite not involutive for %v", a)
		}
		if a.Opposite() == a {
			t.Fatalf("axis %v is its own opposite", a)
		}
	}
}

func TestDecomposeCoversAllCells(t *testing.T) {
	m := mustMesh(t, 12, 10, 8)
	for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 24, 60} {
		g, err := Decompose(m, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if g.Parts() != p {
			t.Fatalf("p=%d: got %d parts", p, g.Parts())
		}
		total := 0
		owned := make([]int, m.Cells())
		for r := 0; r < p; r++ {
			part := g.Part(r)
			total += part.Cells()
			for k := part.K0; k < part.K1; k++ {
				for j := part.J0; j < part.J1; j++ {
					for i := part.I0; i < part.I1; i++ {
						owned[m.Index(i, j, k)]++
					}
				}
			}
		}
		if total != m.Cells() {
			t.Fatalf("p=%d: parts own %d cells of %d", p, total, m.Cells())
		}
		for idx, n := range owned {
			if n != 1 {
				t.Fatalf("p=%d: cell %d owned %d times", p, idx, n)
			}
		}
	}
}

func TestDecomposeBalance(t *testing.T) {
	m := mustMesh(t, 64, 64, 64)
	g, err := Decompose(m, 48)
	if err != nil {
		t.Fatal(err)
	}
	minC, maxC := m.Cells(), 0
	for r := 0; r < 48; r++ {
		c := g.Part(r).Cells()
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if float64(maxC) > 1.2*float64(minC) {
		t.Fatalf("imbalance: min %d max %d", minC, maxC)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	m := mustMesh(t, 12, 10, 8)
	g, err := Decompose(m, 24)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Parts(); r++ {
		for _, nb := range g.Part(r).Neighbors() {
			// The neighbour must list us back across the opposite face
			// with the same count.
			back := g.Part(nb.Rank).Neighbors()
			found := false
			for _, bn := range back {
				if bn.Rank == r && bn.Face == nb.Face.Opposite() {
					found = true
					if bn.Count != nb.Count {
						t.Fatalf("rank %d↔%d: asymmetric face counts %d vs %d",
							r, nb.Rank, nb.Count, bn.Count)
					}
				}
			}
			if !found {
				t.Fatalf("rank %d lists %d via %v but not vice versa", r, nb.Rank, nb.Face)
			}
		}
	}
}

func TestInteriorPartHasSixNeighbors(t *testing.T) {
	m := mustMesh(t, 30, 30, 30)
	g, err := Decompose(m, 27) // 3×3×3
	if err != nil {
		t.Fatal(err)
	}
	center := g.RankAt(1, 1, 1)
	if n := len(g.Part(center).Neighbors()); n != 6 {
		t.Fatalf("central part has %d neighbours, want 6", n)
	}
	corner := g.RankAt(0, 0, 0)
	if n := len(g.Part(corner).Neighbors()); n != 3 {
		t.Fatalf("corner part has %d neighbours, want 3", n)
	}
}

func TestBoundaryFlags(t *testing.T) {
	m := mustMesh(t, 8, 8, 8)
	g, err := Decompose(m, 8) // 2×2×2
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		p := g.Part(r)
		cx, cy, cz := g.Coords(r)
		want := [...]bool{cx == 0, cx == g.PX-1, cy == 0, cy == g.PY-1, cz == 0, cz == g.PZ-1}
		for face := XMinus; face <= ZPlus; face++ {
			if p.OnBoundary(face) != want[face] {
				t.Errorf("rank %d boundary flag on %v wrong", r, face)
			}
		}
		// With at most 8 parts of a cube, every part touches some
		// lateral boundary.
		if p.WallCells() <= 0 {
			t.Errorf("rank %d wall cells %d", r, p.WallCells())
		}
	}
}

func TestDecomposeAlignedConstraint(t *testing.T) {
	m := mustMesh(t, 64, 64, 64)
	for _, c := range []struct{ p, align int }{
		{8, 4}, {28, 4}, {112, 4}, {48, 2}, {640, 16},
	} {
		g, err := DecomposeAligned(m, c.p, c.align)
		if err != nil {
			t.Fatalf("p=%d align=%d: %v", c.p, c.align, err)
		}
		if g.PZ%c.align != 0 {
			t.Fatalf("p=%d align=%d: PZ=%d not aligned", c.p, c.align, g.PZ)
		}
	}
}

func TestDecomposeAlignedRejects(t *testing.T) {
	m := mustMesh(t, 8, 8, 8)
	if _, err := DecomposeAligned(m, 7, 2); err == nil {
		t.Error("7 parts with alignment 2 should fail")
	}
	if _, err := DecomposeAligned(m, 4, 0); err == nil {
		t.Error("alignment 0 should fail")
	}
	if _, err := Decompose(m, 0); err == nil {
		t.Error("0 parts should fail")
	}
	if _, err := Decompose(m, m.Cells()+1); err == nil {
		t.Error("more parts than cells should fail")
	}
}

func TestAlignedNodeBoundariesAreCrossSections(t *testing.T) {
	// With pz aligned to the node count and x-fastest rank order,
	// ranks on different nodes must never be x/y neighbours — all
	// inter-node halo traffic crosses z faces.
	m := mustMesh(t, 32, 32, 32)
	nodes := 4
	for _, p := range []int{8, 16, 28, 56, 112} {
		g, err := DecomposeAligned(m, p, nodes)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		rpn := p / nodes
		nodeOf := func(rank int) int { return rank / rpn }
		for r := 0; r < p; r++ {
			for _, nb := range g.Part(r).Neighbors() {
				if nodeOf(nb.Rank) != nodeOf(r) {
					if nb.Face != ZMinus && nb.Face != ZPlus {
						t.Fatalf("p=%d: inter-node neighbour across %v", p, nb.Face)
					}
				}
			}
		}
	}
}
