// The cross-package determinism test: a CellTrace attached to a real
// MPI execution must be byte-identical across runs. Lives in the
// external test package so it can import mpi (the production
// dependency points the other way — mpi knows only the interfaces).
package telemetry_test

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func traceConfig(p, rpn int, tr *telemetry.CellTrace) mpi.Config {
	nodes := (p + rpn - 1) / rpn
	shm := fabric.SharedMemory(8*units.GBps, 0.5*units.Microsecond)
	inter := fabric.GigabitEthernet.Native
	return mpi.Config{
		Ranks:  p,
		Nodes:  nodes,
		NodeOf: func(r int) int { return r / rpn },
		Path: func(src, dst int) *fabric.Transport {
			if src/rpn == dst/rpn {
				return &shm
			}
			return &inter
		},
		ComputeDilation: 1.0,
		Tap:             tr,
	}
}

// traceRun executes a small program exercising point-to-point,
// collectives, and blocking (parks and wakes) under a fresh trace.
func traceRun(t *testing.T) []byte {
	t.Helper()
	tr := telemetry.NewCellTrace("mpi-4x2", 0)
	st, err := mpi.Run(traceConfig(4, 2, tr), func(r *mpi.Rank) {
		buf := []float64{float64(r.ID())}
		r.World().Allreduce(buf, mpi.OpSum)
		if r.ID() == 0 {
			r.Send(1, 3, []float64{1, 2, 3})
		}
		if r.ID() == 1 {
			r.Recv(0, 3, make([]float64, 3))
		}
		r.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetKernel(st.Kernel)
	data, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestMPITraceDeterministic(t *testing.T) {
	a, b := traceRun(t), traceRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs of the same cell exported different traces:\n%s\n---\n%s", a, b)
	}
}

func TestMPITraceRecordsAllSeams(t *testing.T) {
	data := traceRun(t)
	for _, want := range []string{
		`"name":"switch"`,    // kernel handoffs
		`"name":"park"`,      // blocking
		`"name":"wake"`,      // wakes
		`"name":"msg"`,       // point-to-point completion
		`"name":"allreduce"`, // collective phase spans
		`"name":"barrier"`,
		`"ph":"B"`,
		`"ph":"E"`,
		`"kernel":{`, // final scheduler counters
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("trace lacks %s:\n%s", want, data)
		}
	}
}
