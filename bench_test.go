package containerhpc

// The ablation benches for the design choices DESIGN.md calls out:
// each reports the *simulated* seconds of a model variant (placement,
// eager threshold, NIC sharing, allreduce algorithm, model vs real
// numerics) via b.ReportMetric, which no `go run ./benchmark` workload
// covers. Host-time performance is measured by `benchmark/` alone and
// recorded in bench/BENCH_<pr>.json.

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/units"
)

// benchLenoxCase is the Fig. 1 case with a shorter simulated solve, as
// in the experiments tests.
func benchLenoxCase() Case {
	c := ArteryCFDLenox()
	c.SimSteps = 1
	c.ModelCGIters = 30
	return c
}

// runBenchCell executes one simulation cell for the ablations.
func runBenchCell(b *testing.B, cl *Cluster, cs Case, nodes, ranks, threads int,
	place Placement, algo AllreduceAlgo, mode Mode) Result {
	b.Helper()
	res, err := RunCell(Cell{
		Cluster: cl, Runtime: NewBareMetal(), Case: cs,
		Nodes: nodes, Ranks: ranks, Threads: threads,
		Placement: place, Allreduce: algo, Mode: mode,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func ablationCase() Case {
	c := ArteryCFDCTEPower()
	m, err := NewMesh(128, 128, 96, 1e-4)
	if err != nil {
		panic(err)
	}
	c.FluidMesh = m
	c.Steps, c.SimSteps = 2, 1
	c.ModelCGIters = 40
	return c
}

// BenchmarkAblationAllreduceAlgorithms compares the four allreduce
// algorithms on the same 8-node configuration — the collective-choice
// ablation from DESIGN.md §5.
func BenchmarkAblationAllreduceAlgorithms(b *testing.B) {
	algos := []AllreduceAlgo{
		AllreduceRecursiveDoubling, AllreduceRing,
		AllreduceReduceBcast, AllreduceHierarchical,
	}
	cs := ablationCase()
	for _, algo := range algos {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runBenchCell(b, MareNostrum4(), cs, 8, 8*48, 1, PlaceBlock, algo, ModeModel)
				b.ReportMetric(float64(res.Exec.TimePerStep), "sim_s/step")
			}
		})
	}
}

// BenchmarkAblationPlacement compares block vs cyclic rank placement on
// the 1 GbE cluster, where communication locality decides the outcome —
// cyclic placement turns most halo neighbours inter-node.
func BenchmarkAblationPlacement(b *testing.B) {
	cs := benchLenoxCase()
	for _, place := range []Placement{PlaceBlock, PlaceCyclic} {
		b.Run(place.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runBenchCell(b, Lenox(), cs, 4, 112, 1, place, AllreduceRecursiveDoubling, ModeModel)
				b.ReportMetric(float64(res.Exec.TimePerStep), "sim_s/step")
			}
		})
	}
}

// BenchmarkAblationExecModes compares the workload model against the
// real numerics on a configuration small enough to run both.
func BenchmarkAblationExecModes(b *testing.B) {
	for _, mode := range []Mode{ModeModel, ModeReal} {
		b.Run(mode.String(), func(b *testing.B) {
			cs := QuickCFD(2)
			for i := 0; i < b.N; i++ {
				res := runBenchCell(b, MareNostrum4(), cs, 2, 16, 1, PlaceBlock, AllreduceRecursiveDoubling, mode)
				b.ReportMetric(float64(res.Exec.TimePerStep), "sim_s/step")
			}
		})
	}
}

// BenchmarkAblationEagerThreshold sweeps the rendezvous cutoff of the
// 1 GbE transport through an MPI-level exchange pattern.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thresh := range []ByteSize{1 * 1024, 32 * 1024, 1024 * 1024} {
		b.Run(thresh.String(), func(b *testing.B) {
			tr := fabric.GigabitEthernet.Native
			tr.EagerThreshold = units.ByteSize(thresh)
			shm := fabric.SharedMemory(8*units.GBps, 0.5*units.Microsecond)
			cfg := mpi.Config{
				Ranks: 16, Nodes: 4,
				NodeOf: func(r int) int { return r / 4 },
				Path: func(src, dst int) *fabric.Transport {
					if src/4 == dst/4 {
						return &shm
					}
					return &tr
				},
				ComputeDilation: 1,
			}
			for i := 0; i < b.N; i++ {
				st, err := mpi.Run(cfg, func(r *mpi.Rank) {
					buf := make([]float64, 8192) // 64 KiB: above and below thresholds
					for iter := 0; iter < 10; iter++ {
						next := (r.ID() + 4) % r.Size()
						prev := (r.ID() - 4 + r.Size()) % r.Size()
						r.SendRecv(next, iter, buf, prev, iter, buf)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.End), "sim_s")
			}
		})
	}
}

// BenchmarkAblationContention toggles the NIC-sharing model: without
// injection-port serialization the 1 GbE cluster looks far faster than
// it is.
func BenchmarkAblationContention(b *testing.B) {
	for _, shared := range []bool{true, false} {
		name := "nic-shared"
		if !shared {
			name = "nic-unshared"
		}
		b.Run(name, func(b *testing.B) {
			tr := fabric.GigabitEthernet.Native
			tr.SharesNIC = shared
			shm := fabric.SharedMemory(8*units.GBps, 0.5*units.Microsecond)
			cfg := mpi.Config{
				Ranks: 32, Nodes: 2,
				NodeOf: func(r int) int { return r / 16 },
				Path: func(src, dst int) *fabric.Transport {
					if src/16 == dst/16 {
						return &shm
					}
					return &tr
				},
				ComputeDilation: 1,
			}
			for i := 0; i < b.N; i++ {
				st, err := mpi.Run(cfg, func(r *mpi.Rank) {
					buf := make([]float64, 4096)
					peer := (r.ID() + 16) % 32
					for iter := 0; iter < 5; iter++ {
						r.SendRecv(peer, iter, buf, peer, iter, buf)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.End), "sim_s")
			}
		})
	}
}
