package mpi

import (
	"testing"

	"repro/internal/units"
)

func TestCommSplitCollectives(t *testing.T) {
	// Two disjoint groups run independent allreduces; values must not
	// leak across groups — the FSI two-code pattern.
	p := 12
	cfg := testConfig(p, 4)
	results := make([]float64, p)
	_, err := Run(cfg, func(r *Rank) {
		lo, hi := 0, 8
		if r.ID() >= 8 {
			lo, hi = 8, 12
		}
		comm, err := r.NewComm(lo, hi)
		if err != nil {
			t.Error(err)
			return
		}
		results[r.ID()] = comm.AllreduceScalar(1, OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if results[i] != 8 {
			t.Fatalf("fluid rank %d got %v, want 8", i, results[i])
		}
	}
	for i := 8; i < 12; i++ {
		if results[i] != 4 {
			t.Fatalf("solid rank %d got %v, want 4", i, results[i])
		}
	}
}

func TestCommRankTranslation(t *testing.T) {
	cfg := testConfig(6, 3)
	_, err := Run(cfg, func(r *Rank) {
		if r.ID() < 2 || r.ID() == 5 {
			return // ranks outside [2, 5) sit out
		}
		comm, err := r.NewComm(2, 5)
		if err != nil {
			t.Error(err)
			return
		}
		if comm.Size() != 3 {
			t.Errorf("size %d", comm.Size())
		}
		if comm.Rank() != r.ID()-2 {
			t.Errorf("world %d: comm rank %d, want %d", r.ID(), comm.Rank(), r.ID()-2)
		}
		// A bcast within the comm.
		buf := []float64{0}
		if comm.Rank() == 0 {
			buf[0] = 42
		}
		comm.Bcast(buf, 0)
		if buf[0] != 42 {
			t.Errorf("world %d: bcast got %v", r.ID(), buf[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewCommValidation(t *testing.T) {
	cfg := testConfig(4, 4)
	_, err := Run(cfg, func(r *Rank) {
		other := (r.ID() + 1) % 4
		for _, tc := range []struct {
			name   string
			lo, hi int
		}{
			{"empty", 2, 2},
			{"reversed", 3, 1},
			{"below the world", -1, 4},
			{"past the world", 0, 5},
			{"excluding self", other, other + 1},
		} {
			if _, err := r.NewComm(tc.lo, tc.hi); err == nil {
				t.Errorf("rank %d: %s range [%d, %d) accepted", r.ID(), tc.name, tc.lo, tc.hi)
			}
		}
		if _, err := r.NewComm(r.ID(), r.ID()+1); err != nil {
			t.Errorf("rank %d: singleton range rejected: %v", r.ID(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalAllreduceCorrect(t *testing.T) {
	// The hierarchical algorithm must agree with the flat ones for
	// every node-grouping, including ragged group sizes.
	for _, tc := range []struct{ p, rpn int }{
		{4, 4}, {8, 4}, {12, 5}, {16, 3}, {24, 7}, {48, 48},
	} {
		cfg := testConfig(tc.p, tc.rpn)
		cfg.Allreduce = AllreduceHierarchical
		got := make([]float64, tc.p)
		_, err := Run(cfg, func(r *Rank) {
			got[r.ID()] = r.AllreduceScalar(float64(r.ID()+1), OpSum)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tc.p*(tc.p+1)) / 2
		for i, v := range got {
			if v != want {
				t.Fatalf("p=%d rpn=%d rank=%d: got %v want %v", tc.p, tc.rpn, i, v, want)
			}
		}
	}
}

// TestHierarchicalGroupingShared holds the node grouping to one walk
// per communicator range: with cyclic placement (a node's ranks are not
// contiguous) and a two-range split, every rank still reduces to its
// range's sum, and placement is consulted once per rank at start-up —
// not once per rank per member, which was P² NodeOf calls per cell.
func TestHierarchicalGroupingShared(t *testing.T) {
	const p, nodes, split = 22, 4, 9
	cfg := testConfig(p, 0)
	cfg.Allreduce = AllreduceHierarchical
	cfg.Nodes = nodes
	calls := 0
	cfg.NodeOf = func(r int) int { calls++; return r % nodes }
	got := make([]float64, p)
	_, err := Run(cfg, func(r *Rank) {
		lo, hi := 0, split
		if r.ID() >= split {
			lo, hi = split, p
		}
		comm, err := r.NewComm(lo, hi)
		if err != nil {
			panic(err)
		}
		got[r.ID()] = comm.AllreduceScalar(float64(r.ID()+1), OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := float64(split * (split + 1) / 2)
		if i >= split {
			want = float64(p*(p+1)/2 - split*(split+1)/2)
		}
		if v != want {
			t.Errorf("rank %d: got %v want %v", i, v, want)
		}
	}
	if calls != p {
		t.Errorf("NodeOf called %d times for %d ranks, want one call per rank", calls, p)
	}
}

func TestHierarchicalAllreduceVector(t *testing.T) {
	cfg := testConfig(12, 5)
	cfg.Allreduce = AllreduceHierarchical
	_, err := Run(cfg, func(r *Rank) {
		buf := []float64{float64(r.ID()), 1, -float64(r.ID())}
		r.World().Allreduce(buf, OpMax)
		if buf[0] != 11 || buf[1] != 1 || buf[2] != 0 {
			t.Errorf("rank %d: %v", r.ID(), buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalCheaperThanFlatOnFastIntra(t *testing.T) {
	// With a slow inter-node fabric, fast shm, and a non-power-of-two
	// rank-per-node count (like the real 48-core nodes), flat recursive
	// doubling's butterfly peers scatter across nodes while the
	// hierarchical algorithm pays the fabric only between node leaders.
	cost := func(algo AllreduceAlgo) units.Seconds {
		cfg := testConfig(48, 12) // 4 nodes × 12 ranks on 1GbE
		cfg.Allreduce = algo
		st, err := Run(cfg, func(r *Rank) {
			for i := 0; i < 5; i++ {
				r.AllreduceScalar(1, OpSum)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.End
	}
	flat := cost(AllreduceRecursiveDoubling)
	hier := cost(AllreduceHierarchical)
	if hier >= flat {
		t.Fatalf("hierarchical (%v) not cheaper than flat RD (%v)", hier, flat)
	}
}

func TestWorldWrappersMatchComm(t *testing.T) {
	cfg := testConfig(5, 2)
	_, err := Run(cfg, func(r *Rank) {
		a := r.AllreduceScalar(float64(r.ID()), OpMin)
		b := r.World().AllreduceScalar(float64(r.ID()), OpMin)
		if a != 0 || b != 0 {
			t.Errorf("wrappers disagree: %v %v", a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrossGroupPointToPoint(t *testing.T) {
	// The FSI coupling pattern: group A world-rank p2p with group B.
	cfg := testConfig(6, 3)
	var got [3]float64
	_, err := Run(cfg, func(r *Rank) {
		if r.ID() < 3 {
			r.Send(r.ID()+3, 50, []float64{float64(10 * r.ID())})
		} else {
			buf := []float64{0}
			r.Recv(r.ID()-3, 50, buf)
			got[r.ID()-3] = buf[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(10*i) {
			t.Fatalf("cross-group p2p: got %v", got)
		}
	}
}
