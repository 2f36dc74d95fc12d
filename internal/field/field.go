// Package field provides ghosted scalar fields over mesh partitions and
// the communication interface the distributed solvers are written
// against. The same solver code runs sequentially (SeqComm) and under
// the simulated MPI (the alya package installs an MPI-backed Comm).
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
func New(p mesh.Partition) *Field {
	nx, ny, nz := p.Dims()
	return &Field{NX: nx, NY: ny, NZ: nz, Data: make([]float64, (nx+2)*(ny+2)*(nz+2))}
}

// Idx maps interior coordinates i∈[-1,NX], j∈[-1,NY], k∈[-1,NZ]
// (−1 and N are ghosts) to the flat index.
func (f *Field) Idx(i, j, k int) int {
	return (i + 1) + (f.NX+2)*((j+1)+(f.NY+2)*(k+1))
}

// At reads the value at (i, j, k), ghosts included.
func (f *Field) At(i, j, k int) float64 { return f.Data[f.Idx(i, j, k)] }

// Set writes the value at (i, j, k), ghosts included.
func (f *Field) Set(i, j, k int, v float64) { f.Data[f.Idx(i, j, k)] = v }

// Interior returns the owned-cell count.
func (f *Field) Interior() int { return f.NX * f.NY * f.NZ }

// CopyInterior flattens the owned cells into dst (len Interior()).
func (f *Field) CopyInterior(dst []float64) {
	if len(dst) != f.Interior() {
		panic(fmt.Sprintf("field: interior copy length %d != %d", len(dst), f.Interior()))
	}
	n := 0
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				dst[n] = f.At(i, j, k)
				n++
			}
		}
	}
}

// SetInterior fills the owned cells from src (len Interior()).
func (f *Field) SetInterior(src []float64) {
	if len(src) != f.Interior() {
		panic(fmt.Sprintf("field: interior set length %d != %d", len(src), f.Interior()))
	}
	n := 0
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				f.Set(i, j, k, src[n])
				n++
			}
		}
	}
}

// PackFace gathers the interior boundary layer adjacent to the given
// face into buf (length = face cell count) for sending to a neighbour.
func (f *Field) PackFace(face mesh.Axis, buf []float64) {
	n := 0
	switch face {
	case mesh.XMinus, mesh.XPlus:
		i := 0
		if face == mesh.XPlus {
			i = f.NX - 1
		}
		for k := 0; k < f.NZ; k++ {
			for j := 0; j < f.NY; j++ {
				buf[n] = f.At(i, j, k)
				n++
			}
		}
	case mesh.YMinus, mesh.YPlus:
		j := 0
		if face == mesh.YPlus {
			j = f.NY - 1
		}
		for k := 0; k < f.NZ; k++ {
			for i := 0; i < f.NX; i++ {
				buf[n] = f.At(i, j, k)
				n++
			}
		}
	case mesh.ZMinus, mesh.ZPlus:
		k := 0
		if face == mesh.ZPlus {
			k = f.NZ - 1
		}
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				buf[n] = f.At(i, j, k)
				n++
			}
		}
	}
	if n != len(buf) {
		panic(fmt.Sprintf("field: pack face %v filled %d of %d", face, n, len(buf)))
	}
}

// UnpackGhost scatters buf into the ghost layer on the given face.
func (f *Field) UnpackGhost(face mesh.Axis, buf []float64) {
	n := 0
	switch face {
	case mesh.XMinus, mesh.XPlus:
		i := -1
		if face == mesh.XPlus {
			i = f.NX
		}
		for k := 0; k < f.NZ; k++ {
			for j := 0; j < f.NY; j++ {
				f.Set(i, j, k, buf[n])
				n++
			}
		}
	case mesh.YMinus, mesh.YPlus:
		j := -1
		if face == mesh.YPlus {
			j = f.NY
		}
		for k := 0; k < f.NZ; k++ {
			for i := 0; i < f.NX; i++ {
				f.Set(i, j, k, buf[n])
				n++
			}
		}
	case mesh.ZMinus, mesh.ZPlus:
		k := -1
		if face == mesh.ZPlus {
			k = f.NZ
		}
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				f.Set(i, j, k, buf[n])
				n++
			}
		}
	}
	if n != len(buf) {
		panic(fmt.Sprintf("field: unpack face %v consumed %d of %d", face, n, len(buf)))
	}
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
