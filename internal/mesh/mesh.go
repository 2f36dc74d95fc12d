// Package mesh provides the structured artery-segment meshes the
// Alya-like solvers run on, and their 3D block decompositions.
//
// The paper's cases are unstructured FE meshes of an artery; the
// performance-relevant properties are cells per rank (compute),
// face sizes between subdomains (halo traffic), and neighbour counts
// (message multiplicity). A structured hex mesh with a balanced 3D
// block decomposition reproduces all three while staying verifiable.
package mesh

import (
	"fmt"
	"math"
)

// Mesh is a uniform structured hex grid spanning an artery segment.
// The tube axis runs along Z: the inlet plane is k == 0, the outlet
// plane is k == NZ-1, and the lateral boundary is the vessel wall.
type Mesh struct {
	// NX, NY, NZ are cell counts per axis.
	NX int `json:"NX"`
	NY int `json:"NY"`
	NZ int `json:"NZ"`
	// HX, HY, HZ are cell sizes in metres.
	HX float64 `json:"HX"`
	HY float64 `json:"HY"`
	HZ float64 `json:"HZ"`
}

// NewMesh validates and returns a mesh.
func NewMesh(nx, ny, nz int, hx, hy, hz float64) (Mesh, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return Mesh{}, fmt.Errorf("mesh: dimensions %d×%d×%d", nx, ny, nz)
	}
	if hx <= 0 || hy <= 0 || hz <= 0 {
		return Mesh{}, fmt.Errorf("mesh: cell sizes %v×%v×%v", hx, hy, hz)
	}
	return Mesh{NX: nx, NY: ny, NZ: nz, HX: hx, HY: hy, HZ: hz}, nil
}

// Cells returns the total cell count.
func (m Mesh) Cells() int { return m.NX * m.NY * m.NZ }

// Index linearizes (i, j, k) in x-fastest order.
func (m Mesh) Index(i, j, k int) int { return i + m.NX*(j+m.NY*k) }

// Axis identifies a face direction of a subdomain.
type Axis int

// The six face directions.
const (
	XMinus Axis = iota
	XPlus
	YMinus
	YPlus
	ZMinus
	ZPlus
)

// String names the axis direction.
func (a Axis) String() string {
	return [...]string{"x-", "x+", "y-", "y+", "z-", "z+"}[a]
}

// Opposite returns the facing direction.
func (a Axis) Opposite() Axis {
	return [...]Axis{XPlus, XMinus, YPlus, YMinus, ZPlus, ZMinus}[a]
}

// Grid is a 3D block decomposition of a mesh into PX×PY×PZ parts.
type Grid struct {
	// Mesh is the decomposed mesh.
	Mesh Mesh
	// PX, PY, PZ are part counts per axis; PX*PY*PZ is the rank count.
	PX, PY, PZ int
}

// Decompose factors p parts over the mesh, choosing the factorization
// that minimizes total inter-part surface (communication volume).
func Decompose(m Mesh, p int) (Grid, error) {
	return DecomposeAligned(m, p, 1)
}

// DecomposeAligned factors p parts with PZ a multiple of alignZ. With
// x-fastest rank ordering and block placement over alignZ nodes, the
// constraint makes node boundaries exact z cross-sections: the
// inter-node communication volume becomes independent of the ranks ×
// threads decomposition, as it is for a production code whose
// partitioner is topology-aware. Among admissible factorizations the
// one minimizing per-part surface wins.
func DecomposeAligned(m Mesh, p, alignZ int) (Grid, error) {
	if p < 1 {
		return Grid{}, fmt.Errorf("mesh: decompose into %d parts", p)
	}
	if alignZ < 1 {
		return Grid{}, fmt.Errorf("mesh: z alignment %d", alignZ)
	}
	if p%alignZ != 0 {
		return Grid{}, fmt.Errorf("mesh: %d parts not divisible by z alignment %d", p, alignZ)
	}
	if p > m.Cells() {
		return Grid{}, fmt.Errorf("mesh: %d parts exceed %d cells", p, m.Cells())
	}
	best := Grid{Mesh: m}
	bestCost := math.Inf(1)
	for px := 1; px <= p; px++ {
		if p%px != 0 || px > m.NX {
			continue
		}
		rest := p / px
		for py := 1; py <= rest; py++ {
			if rest%py != 0 || py > m.NY {
				continue
			}
			pz := rest / py
			if pz > m.NZ || pz%alignZ != 0 {
				continue
			}
			// Surface area of one part, in cells, as the cost proxy.
			lx := float64(m.NX) / float64(px)
			ly := float64(m.NY) / float64(py)
			lz := float64(m.NZ) / float64(pz)
			cost := 2 * (lx*ly*btoi(pz > 1) + lx*lz*btoi(py > 1) + ly*lz*btoi(px > 1))
			if cost < bestCost {
				bestCost = cost
				best.PX, best.PY, best.PZ = px, py, pz
			}
		}
	}
	if best.PX == 0 {
		return Grid{}, fmt.Errorf("mesh: no factorization of %d parts over %d×%d×%d with z alignment %d",
			p, m.NX, m.NY, m.NZ, alignZ)
	}
	return best, nil
}

func btoi(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Parts returns the rank count of the decomposition.
func (g Grid) Parts() int { return g.PX * g.PY * g.PZ }

// Coords maps a rank to its (cx, cy, cz) block coordinates
// (x-fastest order).
func (g Grid) Coords(rank int) (cx, cy, cz int) {
	cx = rank % g.PX
	cy = (rank / g.PX) % g.PY
	cz = rank / (g.PX * g.PY)
	return
}

// RankAt maps block coordinates to a rank.
func (g Grid) RankAt(cx, cy, cz int) int {
	return cx + g.PX*(cy+g.PY*cz)
}

// Part returns a rank's subdomain.
func (g Grid) Part(rank int) Partition {
	if rank < 0 || rank >= g.Parts() {
		panic(fmt.Sprintf("mesh: rank %d outside %d parts", rank, g.Parts()))
	}
	cx, cy, cz := g.Coords(rank)
	i0, i1 := blockRange(g.Mesh.NX, g.PX, cx)
	j0, j1 := blockRange(g.Mesh.NY, g.PY, cy)
	k0, k1 := blockRange(g.Mesh.NZ, g.PZ, cz)
	return Partition{
		Grid: g, Rank: rank,
		CX: cx, CY: cy, CZ: cz,
		I0: i0, I1: i1, J0: j0, J1: j1, K0: k0, K1: k1,
	}
}

// blockRange splits n cells into p balanced contiguous blocks and
// returns block b's half-open range.
func blockRange(n, p, b int) (int, int) {
	return b * n / p, (b + 1) * n / p
}

// Partition is one rank's subdomain: the half-open index box
// [I0,I1)×[J0,J1)×[K0,K1) of the global mesh.
type Partition struct {
	// Grid is the owning decomposition; Rank the owner.
	Grid Grid
	Rank int
	// CX, CY, CZ are the block coordinates.
	CX, CY, CZ int
	// I0..K1 bound the owned cells (half-open).
	I0, I1, J0, J1, K0, K1 int
}

// Dims returns the local extent per axis.
func (p Partition) Dims() (nx, ny, nz int) {
	return p.I1 - p.I0, p.J1 - p.J0, p.K1 - p.K0
}

// Cells returns the local cell count.
func (p Partition) Cells() int {
	nx, ny, nz := p.Dims()
	return nx * ny * nz
}

// Neighbor is one face-adjacent peer subdomain.
type Neighbor struct {
	// Rank is the peer's rank.
	Rank int
	// Face is the direction of the shared face from this partition.
	Face Axis
	// Count is the number of face cells exchanged per halo swap.
	Count int
}

// Neighbors lists the face-adjacent peers in a fixed axis order
// (x-, x+, y-, y+, z-, z+), omitting physical-boundary faces.
func (p Partition) Neighbors() []Neighbor {
	nx, ny, nz := p.Dims()
	var out []Neighbor
	add := func(face Axis, cx, cy, cz, count int) {
		if cx < 0 || cx >= p.Grid.PX || cy < 0 || cy >= p.Grid.PY || cz < 0 || cz >= p.Grid.PZ {
			return
		}
		out = append(out, Neighbor{Rank: p.Grid.RankAt(cx, cy, cz), Face: face, Count: count})
	}
	add(XMinus, p.CX-1, p.CY, p.CZ, ny*nz)
	add(XPlus, p.CX+1, p.CY, p.CZ, ny*nz)
	add(YMinus, p.CX, p.CY-1, p.CZ, nx*nz)
	add(YPlus, p.CX, p.CY+1, p.CZ, nx*nz)
	add(ZMinus, p.CX, p.CY, p.CZ-1, nx*ny)
	add(ZPlus, p.CX, p.CY, p.CZ+1, nx*ny)
	return out
}

// OnInlet reports whether the partition touches the inlet plane (k=0).
func (p Partition) OnInlet() bool { return p.K0 == 0 }

// OnOutlet reports whether the partition touches the outlet plane.
func (p Partition) OnOutlet() bool { return p.K1 == p.Grid.Mesh.NZ }

// OnWall reports whether the partition touches the lateral boundary.
func (p Partition) OnWall() bool {
	return p.I0 == 0 || p.I1 == p.Grid.Mesh.NX || p.J0 == 0 || p.J1 == p.Grid.Mesh.NY
}

// WallCells counts this partition's cells on the lateral boundary —
// the FSI coupling interface.
func (p Partition) WallCells() int {
	nx, ny, nz := p.Dims()
	count := 0
	if p.I0 == 0 {
		count += ny * nz
	}
	if p.I1 == p.Grid.Mesh.NX {
		count += ny * nz
	}
	if p.J0 == 0 {
		count += nx * nz
	}
	if p.J1 == p.Grid.Mesh.NY {
		count += nx * nz
	}
	return count
}
