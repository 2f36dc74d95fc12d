// Package field provides ghosted scalar fields over mesh partitions and
// the communication interface the distributed solvers are written
// against. The same solver code runs sequentially (SeqComm) and under
// the simulated MPI (the alya package installs an MPI-backed Comm).
//
// Layout and stride contract. A Field's Data holds (NX+2)×(NY+2)×(NZ+2)
// values, x fastest: cell (i, j, k), i∈[-1,NX], j∈[-1,NY], k∈[-1,NZ]
// (−1 and N are ghosts), lives at Idx(i, j, k) = (i+1) + sy·(j+1) +
// sz·(k+1) with sy = NX+2 and sz = (NX+2)(NY+2) (Strides). So the
// face neighbours of index m are m±1, m±sy and m±sz; the owned cells
// of row (j, k) are the NX consecutive values from Idx(0, j, k); and
// every field of one partition has the same layout, so an index names
// the same cell in each. The stencil kernels — Laplace here, the navier
// and solid solvers' loops — index Data directly on this contract,
// computing a row's start once and stepping by the strides.
//
// A face's ghost Layer is written by a halo exchange (UnpackGhost) on a
// partition-internal face and by the solver's boundary condition on a
// physical one. The edge and corner ghosts lie on no face: nothing
// writes them but ClearEdges, so a stencil that reads them must clear
// them first.
package field

import (
	"fmt"

	"repro/internal/mesh"
)

// Field is a scalar field on one partition's cells plus a one-cell
// ghost layer on every side.
type Field struct {
	// NX, NY, NZ are the interior (owned) dimensions.
	NX, NY, NZ int
	// Data is laid out x-fastest over (NX+2)×(NY+2)×(NZ+2).
	Data []float64
}

// New allocates a zeroed field for a partition.
func New(p *mesh.Partition) *Field {
	nx, ny, nz := p.Dims()
	return &Field{NX: nx, NY: ny, NZ: nz, Data: make([]float64, (nx+2)*(ny+2)*(nz+2))}
}

// Idx maps interior coordinates i∈[-1,NX], j∈[-1,NY], k∈[-1,NZ]
// (−1 and N are ghosts) to the flat index.
func (f *Field) Idx(i, j, k int) int {
	return (i + 1) + (f.NX+2)*((j+1)+(f.NY+2)*(k+1))
}

// Strides returns the flat-index distance between y and z neighbours;
// the x distance is 1.
func (f *Field) Strides() (sy, sz int) {
	return f.NX + 2, (f.NX + 2) * (f.NY + 2)
}

// Interior returns the owned-cell count.
func (f *Field) Interior() int { return f.NX * f.NY * f.NZ }

// CopyInterior flattens the owned cells into dst (len Interior()).
func (f *Field) CopyInterior(dst []float64) {
	if len(dst) != f.Interior() {
		panic(fmt.Sprintf("field: interior copy length %d != %d", len(dst), f.Interior()))
	}
	for k, n := 0, 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j, n = j+1, n+f.NX {
			m := f.Idx(0, j, k)
			copy(dst[n:n+f.NX], f.Data[m:m+f.NX])
		}
	}
}

// SetInterior fills the owned cells from src (len Interior()).
func (f *Field) SetInterior(src []float64) {
	if len(src) != f.Interior() {
		panic(fmt.Sprintf("field: interior set length %d != %d", len(src), f.Interior()))
	}
	for k, n := 0, 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j, n = j+1, n+f.NX {
			m := f.Idx(0, j, k)
			copy(f.Data[m:m+f.NX], src[n:n+f.NX])
		}
	}
}

// Layer is one face's ghost layer as runs of flat indices: ghost cell
// (a, b), a < NA and b < NB, sits at G + a·DA + b·DB, and the owned
// cell beside it at that index + In. The order a-fastest is the order
// of a face's halo buffer: (j, k) on x faces, (i, k) on y faces and
// (i, j) on z faces.
type Layer struct{ G, In, DA, NA, DB, NB int }

// Layer returns the ghost layer on one face.
func (f *Field) Layer(face mesh.Axis) Layer {
	sy, sz := f.Strides()
	switch face {
	case mesh.XMinus:
		return Layer{f.Idx(-1, 0, 0), 1, sy, f.NY, sz, f.NZ}
	case mesh.XPlus:
		return Layer{f.Idx(f.NX, 0, 0), -1, sy, f.NY, sz, f.NZ}
	case mesh.YMinus:
		return Layer{f.Idx(0, -1, 0), sy, 1, f.NX, sz, f.NZ}
	case mesh.YPlus:
		return Layer{f.Idx(0, f.NY, 0), -sy, 1, f.NX, sz, f.NZ}
	case mesh.ZMinus:
		return Layer{f.Idx(0, 0, -1), sz, 1, f.NX, sy, f.NY}
	default:
		return Layer{f.Idx(0, 0, f.NZ), -sz, 1, f.NX, sy, f.NY}
	}
}

// PackFace gathers the interior boundary layer adjacent to the given
// face into buf (length = face cell count) for sending to a neighbour.
func (f *Field) PackFace(face mesh.Axis, buf []float64) {
	l := f.Layer(face)
	if l.NA*l.NB != len(buf) {
		panic(fmt.Sprintf("field: pack face %v has %d cells, buffer %d", face, l.NA*l.NB, len(buf)))
	}
	for b, n := 0, 0; b < l.NB; b++ {
		for a, m := 0, l.G+b*l.DB+l.In; a < l.NA; a, m, n = a+1, m+l.DA, n+1 {
			buf[n] = f.Data[m]
		}
	}
}

// UnpackGhost scatters buf into the ghost layer on the given face.
func (f *Field) UnpackGhost(face mesh.Axis, buf []float64) {
	l := f.Layer(face)
	if l.NA*l.NB != len(buf) {
		panic(fmt.Sprintf("field: unpack face %v has %d cells, buffer %d", face, l.NA*l.NB, len(buf)))
	}
	for b, n := 0, 0; b < l.NB; b++ {
		for a, m := 0, l.G+b*l.DB; a < l.NA; a, m, n = a+1, m+l.DA, n+1 {
			f.Data[m] = buf[n]
		}
	}
}

// ClearEdges zeroes the edge and corner ghosts: the ghost cells on no
// face's Layer, which neither a halo exchange nor a boundary condition
// writes.
func (f *Field) ClearEdges() {
	for k := -1; k <= f.NZ; k++ {
		for j := -1; j <= f.NY; j++ {
			kOut, jOut := k < 0 || k == f.NZ, j < 0 || j == f.NY
			m := f.Idx(-1, j, k)
			switch {
			case kOut && jOut:
				clear(f.Data[m : m+f.NX+2])
			case kOut || jOut:
				f.Data[m], f.Data[m+f.NX+1] = 0, 0
			}
		}
	}
}

// Laplace is the 7-point Laplacian at flat index m of a field's Data d
// with strides sy, sz (Strides), an owned cell with its face ghosts
// filled, on a grid of spacing hx, hy, hz. It takes the layout apart,
// not a *Field, to stay small enough to inline into the per-cell loops.
func Laplace(d []float64, m, sy, sz int, hx, hy, hz float64) float64 {
	c := d[m]
	return (d[m-1]-2*c+d[m+1])/(hx*hx) +
		(d[m-sy]-2*c+d[m+sy])/(hy*hy) +
		(d[m-sz]-2*c+d[m+sz])/(hz*hz)
}

// Comm is the communication the distributed solvers need: halo
// exchanges and global sums. Implementations must fill ghost layers on
// partition-internal faces and leave physical-boundary ghosts alone
// (boundary conditions own those).
//
// Charge lets the solvers report their computational work at the point
// in the algorithm where it happens, so a simulating Comm can advance
// virtual time in the right interleaving with the communication. The
// sequential Comm ignores it.
type Comm interface {
	// Exchange swaps halo layers of all fields with face neighbours.
	Exchange(fields ...*Field)
	// AllSum globally sums v across ranks.
	AllSum(v float64) float64
	// AllMax globally maximizes v across ranks.
	AllMax(v float64) float64
	// Charge accounts flops of compute and bytes of memory traffic
	// performed locally since the last communication point.
	Charge(flops, bytes float64)
}

// SeqComm is the single-domain Comm: no neighbours, identity sums.
type SeqComm struct{}

// Exchange implements Comm as a no-op.
func (SeqComm) Exchange(...*Field) {}

// AllSum implements Comm as identity.
func (SeqComm) AllSum(v float64) float64 { return v }

// AllMax implements Comm as identity.
func (SeqComm) AllMax(v float64) float64 { return v }

// Charge implements Comm as a no-op.
func (SeqComm) Charge(flops, bytes float64) {}
