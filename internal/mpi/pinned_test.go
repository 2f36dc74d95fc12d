package mpi

import (
	"runtime"
	"testing"

	"repro/internal/units"
)

// pinnedBody is the rank program TestAllreduceTimingPinned measures: two
// skewed rounds of a short (eager) and a 128 KiB (rendezvous) vector
// allreduce, a scalar allreduce and a barrier — on the world, or on the
// two ranges [0, split) and [split, P) when split > 0. The skew makes
// both orders of arrival (send first, receive first) occur.
func pinnedBody(split int) func(r *Rank) {
	return func(r *Rank) {
		comm := r.World()
		if split > 0 {
			lo, hi := 0, split
			if r.ID() >= split {
				lo, hi = split, r.Size()
			}
			var err error
			if comm, err = r.NewComm(lo, hi); err != nil {
				panic(err)
			}
		}
		small := []float64{float64(r.ID()), 1, -1}
		large := make([]float64, 1<<14)
		for round := 0; round < 2; round++ {
			r.Compute(units.Seconds((r.ID()+round)%3) * units.Millisecond)
			comm.Allreduce(small, OpSum)
			comm.Allreduce(large, OpMax)
			comm.AllreduceScalar(1, OpSum)
			comm.Barrier()
		}
	}
}

// TestAllreduceTimingPinned pins the virtual time and traffic of every
// allreduce algorithm on ragged worlds and on a two-range split. The
// figure goldens exercise only recursive doubling and hierarchical, so
// ring and reduce+bcast — and the shared butterfly and receive-settle
// code under all four — are held here. The literals were printed by
// this same loop (%v of float64(End), TotalMessages, TotalBytes) at
// commit de7ec18, before communicators became ranges and the butterfly
// and settle copies were merged; there the split built its two groups
// as explicit rank lists. They change only with the cost model.
func TestAllreduceTimingPinned(t *testing.T) {
	pins := []struct {
		p, rpn, split int
		algo          AllreduceAlgo
		end           units.Seconds
		msgs          int
		bytes         units.ByteSize
	}{
		{13, 4, 0, AllreduceRecursiveDoubling, 0.016903126745762723, 308, 8915072},
		{13, 4, 0, AllreduceRing, 0.011050955932203413, 1976, 6292992},
		{13, 4, 0, AllreduceReduceBcast, 0.035224317898305095, 248, 6292992},
		{13, 4, 0, AllreduceHierarchical, 0.010296907389830509, 260, 6817408},
		{24, 7, 0, AllreduceRecursiveDoubling, 0.037366346440677975, 720, 20976640},
		{24, 7, 0, AllreduceRing, 0.011445677491525431, 6864, 12061568},
		{24, 7, 0, AllreduceReduceBcast, 0.057701580135593206, 516, 12061568},
		{24, 7, 0, AllreduceHierarchical, 0.010426550389830511, 528, 12585984},
		{24, 7, 10, AllreduceRecursiveDoubling, 0.02660834988135595, 576, 16781312},
		{24, 7, 10, AllreduceRing, 0.013748170898305117, 3456, 11537152},
		{24, 7, 10, AllreduceReduceBcast, 0.04410671581355933, 456, 11537152},
		{24, 7, 10, AllreduceHierarchical, 0.01467791350847459, 456, 11537152},
	}
	for _, pin := range pins {
		cfg := testConfig(pin.p, pin.rpn)
		cfg.Allreduce = pin.algo
		st, err := Run(cfg, pinnedBody(pin.split))
		if err != nil {
			t.Fatal(err)
		}
		if st.End != pin.end || st.TotalMessages != pin.msgs || st.TotalBytes != pin.bytes {
			t.Errorf("p=%d rpn=%d split=%d %v: End %v, %d messages, %d bytes; pinned %v, %d, %d",
				pin.p, pin.rpn, pin.split, pin.algo,
				float64(st.End), st.TotalMessages, int64(st.TotalBytes),
				float64(pin.end), pin.msgs, int64(pin.bytes))
		}
	}
}

// TestCommMemoryLinearInRanks holds the memory shape of communicators:
// the bytes one rank allocates for World(), a two-way split and a
// barrier do not grow with the world. With a rank table per
// communicator they grew linearly — P² ints over the world.
func TestCommMemoryLinearInRanks(t *testing.T) {
	perRank := func(p int) float64 {
		cfg := testConfig(p, 48)
		body := func(r *Rank) {
			lo, hi := 0, p/2
			if r.ID() >= p/2 {
				lo, hi = p/2, p
			}
			if _, err := r.NewComm(lo, hi); err != nil {
				panic(err)
			}
			r.World().Barrier()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, body); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(p)
	}
	small, large := perRank(512), perRank(4096)
	t.Logf("%.0f B/rank at P=512, %.0f B/rank at P=4096", small, large)
	if large >= 2*small {
		t.Fatalf("allocation per rank grows with the world: %.0f B at P=512, %.0f B at P=4096", small, large)
	}
}
