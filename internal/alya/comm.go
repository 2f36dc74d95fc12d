package alya

import (
	"repro/internal/field"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// Halo tags live in the application band (≥ 0). The tag encodes the
// *sender's* face so both sides agree: a receiver expecting data across
// its face F matches the sender's opposite face.
const tagHaloBase = 100

// coupling tags for the FSI interface exchange.
const (
	tagCoupleTraction = 50
	tagCoupleMotion   = 51
)

// rankComm is the MPI-backed field.Comm for one rank of one code: it
// performs bundled halo exchanges with the partition's face neighbours,
// global reductions over the code's communicator, and charges compute
// time through the OpenMP cost model.
type rankComm struct {
	comm    *mpi.Comm
	part    *mesh.Partition
	cells   float64 // part.Cells(), for the model-mode charges
	model   omp.Model
	threads int
	nbrs    []mesh.Neighbor

	// reusable per-neighbour buffers, made by the first Exchange and
	// grown on demand; ExchangeModel never needs them
	sendBufs [][]float64
	recvBufs [][]float64
	// reqs is the reusable request slice for bundled exchanges: room
	// for one receive and one send per neighbour.
	reqs []*mpi.Request
}

var _ field.Comm = (*rankComm)(nil)

func (rc *rankComm) buffers(i, n int) (snd, rcv []float64) {
	if rc.sendBufs == nil {
		rc.sendBufs = make([][]float64, len(rc.nbrs))
		rc.recvBufs = make([][]float64, len(rc.nbrs))
	}
	if cap(rc.sendBufs[i]) < n {
		rc.sendBufs[i] = make([]float64, n)
		rc.recvBufs[i] = make([]float64, n)
	}
	return rc.sendBufs[i][:n], rc.recvBufs[i][:n]
}

// Exchange implements field.Comm: one bundled message per neighbour per
// direction carrying all fields' face layers.
func (rc *rankComm) Exchange(fields ...*field.Field) {
	if len(rc.nbrs) == 0 {
		return
	}
	reqs := rc.reqs[:0]
	// Post all receives first (good MPI practice, and required for the
	// rendezvous protocol to overlap).
	for i, nb := range rc.nbrs {
		n := nb.Count * len(fields)
		_, rcv := rc.buffers(i, n)
		reqs = append(reqs, rc.comm.Irecv(nb.Rank, tagHaloBase+int(nb.Face.Opposite()), rcv))
	}
	for i, nb := range rc.nbrs {
		n := nb.Count * len(fields)
		snd, _ := rc.buffers(i, n)
		for fi, f := range fields {
			f.PackFace(nb.Face, snd[fi*nb.Count:(fi+1)*nb.Count])
		}
		reqs = append(reqs, rc.comm.Isend(nb.Rank, tagHaloBase+int(nb.Face), snd))
	}
	rc.comm.Base().Wait(reqs...)
	for i, nb := range rc.nbrs {
		n := nb.Count * len(fields)
		_, rcv := rc.buffers(i, n)
		for fi, f := range fields {
			f.UnpackGhost(nb.Face, rcv[fi*nb.Count:(fi+1)*nb.Count])
		}
	}
}

// ExchangeModel performs the halo exchange of nFields bundled fields
// without any field data: size-only messages pay every transport cost
// of the correctly sized payloads while moving no bytes in host
// memory. ModeModel's replacement for Exchange.
func (rc *rankComm) ExchangeModel(nFields int) {
	reqs := rc.reqs[:0]
	for _, nb := range rc.nbrs {
		reqs = append(reqs, rc.comm.IrecvModel(nb.Rank, tagHaloBase+int(nb.Face.Opposite()), nb.Count*nFields))
	}
	for _, nb := range rc.nbrs {
		reqs = append(reqs, rc.comm.IsendModel(nb.Rank, tagHaloBase+int(nb.Face), nb.Count*nFields))
	}
	rc.comm.Base().Wait(reqs...)
}

// AllSum implements field.Comm.
func (rc *rankComm) AllSum(v float64) float64 {
	return rc.comm.AllreduceScalar(v, mpi.OpSum)
}

// AllMax implements field.Comm.
func (rc *rankComm) AllMax(v float64) float64 {
	return rc.comm.AllreduceScalar(v, mpi.OpMax)
}

// Charge implements field.Comm: the reported work becomes virtual time
// through the hybrid OpenMP region model.
func (rc *rankComm) Charge(flops, bytes float64) {
	t := rc.model.RegionTime(omp.Region{Flops: workUnits(flops), MemBytes: byteUnits(bytes)}, rc.threads)
	rc.comm.Base().Compute(t)
}
