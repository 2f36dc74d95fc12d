package mpi

import (
	"fmt"
	"testing"
)

// Collective microbenchmarks for the simulated-MPI hot path: each
// iteration runs a full world (spawn, collective, join) so the numbers
// track the kernel's scheduling cost per collective, not just the
// reduction arithmetic. Two rank counts bracket the topology: 8 ranks
// on one node exercises the shared-memory fast path, 32 ranks over 4
// nodes the hierarchical inter-node algorithm. They are run by hand to
// isolate the mechanism; the gated numbers are the benchmark's
// mpi.us_per_allreduce_p{8,640} in bench/BENCH_<pr>.json.

// benchWorld runs body once per b.N over a fresh world.
func benchWorld(b *testing.B, p, rpn int, body func(r *Rank)) {
	b.Helper()
	cfg := testConfig(p, rpn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for _, sz := range []struct{ p, rpn int }{{8, 8}, {32, 8}} {
		b.Run(fmt.Sprintf("p%dx%d", sz.p, sz.rpn), func(b *testing.B) {
			benchWorld(b, sz.p, sz.rpn, func(r *Rank) {
				buf := make([]float64, 1024)
				for i := range buf {
					buf[i] = float64(r.ID() + i)
				}
				r.World().Allreduce(buf, OpSum)
			})
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, sz := range []struct{ p, rpn int }{{8, 8}, {32, 8}} {
		b.Run(fmt.Sprintf("p%dx%d", sz.p, sz.rpn), func(b *testing.B) {
			benchWorld(b, sz.p, sz.rpn, func(r *Rank) {
				r.Barrier()
			})
		})
	}
}
