package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/units"
)

// testConfig builds a world of p ranks spread over nodes of rpn ranks
// each, with distinct intra- and inter-node transports.
func testConfig(p, rpn int) Config {
	if rpn <= 0 {
		rpn = p
	}
	nodes := (p + rpn - 1) / rpn
	shm := fabric.SharedMemory(8*units.GBps, 0.5*units.Microsecond)
	inter := fabric.GigabitEthernet.Native
	return Config{
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
	}
}

func TestSendRecvDeliversPayload(t *testing.T) {
	cfg := testConfig(2, 2)
	want := []float64{1, 2, 3, 4.5}
	var got []float64
	st, err := Run(cfg, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, want)
		} else {
			got = make([]float64, len(want))
			r.Recv(0, 7, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if st.End <= 0 {
		t.Fatalf("end time %v, want > 0", st.End)
	}
	if st.TotalMessages != 1 {
		t.Fatalf("messages = %d, want 1", st.TotalMessages)
	}
}

func TestSendRecvCostOrdering(t *testing.T) {
	// The same payload must take longer inter-node than intra-node,
	// and longer still when large enough for rendezvous.
	elapsed := func(p, rpn, n int) units.Seconds {
		cfg := testConfig(p, rpn)
		st, err := Run(cfg, func(r *Rank) {
			buf := make([]float64, n)
			if r.ID() == 0 {
				r.Send(1, 0, buf)
			} else if r.ID() == 1 {
				r.Recv(0, 0, buf)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.End
	}
	small, large := 16, 1<<16
	intraSmall := elapsed(2, 2, small)
	interSmall := elapsed(2, 1, small)
	interLarge := elapsed(2, 1, large)
	if intraSmall >= interSmall {
		t.Errorf("intra-node (%v) should beat inter-node (%v)", intraSmall, interSmall)
	}
	if interSmall >= interLarge {
		t.Errorf("small message (%v) should beat large message (%v)", interSmall, interLarge)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two sends on the same (src, tag) must match posted receives in
	// order.
	cfg := testConfig(2, 2)
	var first, second [1]float64
	_, err := Run(cfg, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, []float64{1})
			r.Send(1, 3, []float64{2})
		} else {
			r.Recv(0, 3, first[:])
			r.Recv(0, 3, second[:])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 1 || second[0] != 2 {
		t.Fatalf("FIFO violated: got %v, %v", first[0], second[0])
	}
}

func TestTagSelectivity(t *testing.T) {
	// A receive for tag 9 must skip an earlier message with tag 8.
	cfg := testConfig(2, 2)
	var nine, eight [1]float64
	_, err := Run(cfg, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 8, []float64{8})
			r.Send(1, 9, []float64{9})
		} else {
			r.Recv(0, 9, nine[:])
			r.Recv(0, 8, eight[:])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if nine[0] != 9 || eight[0] != 8 {
		t.Fatalf("tag matching violated: got tag9=%v tag8=%v", nine[0], eight[0])
	}
}

func TestRendezvousBlocksSender(t *testing.T) {
	// A rendezvous send must not complete before the receiver posts.
	cfg := testConfig(2, 1)
	n := 1 << 16 // 512 KiB > eager threshold
	recvDelay := 50 * units.Millisecond
	var senderDone units.Seconds
	_, err := Run(cfg, func(r *Rank) {
		buf := make([]float64, n)
		if r.ID() == 0 {
			r.Send(1, 0, buf)
			senderDone = r.Now()
		} else {
			r.Compute(recvDelay)
			r.Recv(0, 0, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone < recvDelay {
		t.Fatalf("rendezvous sender finished at %v, before receiver posted at %v", senderDone, recvDelay)
	}
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	cfg := testConfig(2, 1)
	recvDelay := 50 * units.Millisecond
	var senderDone units.Seconds
	_, err := Run(cfg, func(r *Rank) {
		buf := make([]float64, 4)
		if r.ID() == 0 {
			r.Send(1, 0, buf)
			senderDone = r.Now()
		} else {
			r.Compute(recvDelay)
			r.Recv(0, 0, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone >= recvDelay {
		t.Fatalf("eager sender blocked until %v (receiver posted at %v)", senderDone, recvDelay)
	}
}

func TestSendBufferSemantics(t *testing.T) {
	// Mutating the send buffer after Send must not corrupt the payload.
	cfg := testConfig(2, 2)
	var got [2]float64
	_, err := Run(cfg, func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{10, 20}
			r.Send(1, 0, buf)
			buf[0], buf[1] = -1, -2
			r.Barrier()
		} else {
			r.Barrier()
			r.Recv(0, 0, got[:])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 20 {
		t.Fatalf("payload corrupted by sender mutation: %v", got)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// After a barrier, every rank's clock must be at least the latest
	// pre-barrier clock.
	for _, p := range []int{2, 3, 5, 8, 17} {
		cfg := testConfig(p, 4)
		var latest units.Seconds
		after := make([]units.Seconds, p)
		_, err := Run(cfg, func(r *Rank) {
			d := units.Seconds(r.ID()) * 10 * units.Millisecond
			r.Compute(d)
			if r.Now() > latest {
				latest = r.Now()
			}
			r.Barrier()
			after[r.ID()] = r.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range after {
			if a < latest {
				t.Fatalf("p=%d: rank %d left barrier at %v, before slowest rank arrived at %v", p, i, a, latest)
			}
		}
	}
}

func allreduceResult(t *testing.T, p, n int, algo AllreduceAlgo, op Op) [][]float64 {
	t.Helper()
	cfg := testConfig(p, 4)
	cfg.Allreduce = algo
	out := make([][]float64, p)
	_, err := Run(cfg, func(r *Rank) {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64((r.ID()+1)*(i+1)) * 0.5
		}
		r.World().Allreduce(buf, op)
		out[r.ID()] = buf
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func expectedAllreduce(p, n int, op Op) []float64 {
	want := make([]float64, n)
	for i := range want {
		switch op {
		case OpSum:
			s := 0.0
			for r := 0; r < p; r++ {
				s += float64((r+1)*(i+1)) * 0.5
			}
			want[i] = s
		case OpMax:
			want[i] = float64(p*(i+1)) * 0.5
		case OpMin:
			want[i] = float64(i+1) * 0.5
		}
	}
	return want
}

func TestAllreduceAlgorithmsCorrect(t *testing.T) {
	algos := []AllreduceAlgo{AllreduceRecursiveDoubling, AllreduceRing, AllreduceReduceBcast}
	ops := []Op{OpSum, OpMax, OpMin}
	for _, p := range []int{1, 2, 3, 4, 7, 8, 13, 16} {
		for _, n := range []int{1, 5, 64} {
			for _, algo := range algos {
				for _, op := range ops {
					got := allreduceResult(t, p, n, algo, op)
					want := expectedAllreduce(p, n, op)
					for rk := 0; rk < p; rk++ {
						for i := range want {
							if math.Abs(got[rk][i]-want[i]) > 1e-9*math.Abs(want[i])+1e-12 {
								t.Fatalf("p=%d n=%d algo=%v op=%v rank=%d elem=%d: got %v want %v",
									p, n, algo, op, rk, i, got[rk][i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestBcastCorrect(t *testing.T) {
	for _, p := range []int{2, 3, 6, 9, 16} {
		for root := 0; root < p; root += 2 {
			cfg := testConfig(p, 4)
			out := make([][]float64, p)
			_, err := Run(cfg, func(r *Rank) {
				buf := make([]float64, 8)
				if r.ID() == root {
					for i := range buf {
						buf[i] = float64(i) + 0.25
					}
				}
				r.World().Bcast(buf, root)
				out[r.ID()] = buf
			})
			if err != nil {
				t.Fatal(err)
			}
			for rk := 0; rk < p; rk++ {
				for i := 0; i < 8; i++ {
					if out[rk][i] != float64(i)+0.25 {
						t.Fatalf("p=%d root=%d rank=%d elem=%d: got %v", p, root, rk, i, out[rk][i])
					}
				}
			}
		}
	}
}

func TestReduceCorrect(t *testing.T) {
	for _, p := range []int{2, 5, 8, 11} {
		root := p / 2
		cfg := testConfig(p, 3)
		var got []float64
		_, err := Run(cfg, func(r *Rank) {
			buf := []float64{float64(r.ID() + 1), 1}
			r.World().Reduce(buf, root, OpSum)
			if r.ID() == root {
				got = buf
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		wantSum := float64(p*(p+1)) / 2
		if got[0] != wantSum || got[1] != float64(p) {
			t.Fatalf("p=%d: reduce got %v, want [%v %v]", p, got, wantSum, float64(p))
		}
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical runs must produce bit-identical end times and stats.
	run := func() Stats {
		cfg := testConfig(12, 4)
		st, err := Run(cfg, func(r *Rank) {
			buf := make([]float64, 256)
			for i := range buf {
				buf[i] = float64(r.ID() + i)
			}
			for iter := 0; iter < 5; iter++ {
				r.World().Allreduce(buf[:8], OpSum)
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() - 1 + r.Size()) % r.Size()
				r.SendRecv(next, iter, buf, prev, iter, buf)
				r.Compute(units.Seconds(r.ID()%3) * units.Millisecond)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.End != b.End {
		t.Fatalf("nondeterministic end: %v vs %v", a.End, b.End)
	}
	if a.MaxCommTime != b.MaxCommTime || a.TotalMessages != b.TotalMessages {
		t.Fatalf("nondeterministic stats: %+v vs %+v", a, b)
	}
	for i := range a.RankEnd {
		if a.RankEnd[i] != b.RankEnd[i] {
			t.Fatalf("rank %d end differs: %v vs %v", i, a.RankEnd[i], b.RankEnd[i])
		}
	}
}

func TestAllreduceScalesWithRanks(t *testing.T) {
	// Allreduce cost must grow with world size (latency-bound regime).
	cost := func(p int) units.Seconds {
		cfg := testConfig(p, 1) // one rank per node: all inter-node
		st, err := Run(cfg, func(r *Rank) {
			r.AllreduceScalar(1, OpSum)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.End
	}
	c4, c16, c64 := cost(4), cost(16), cost(64)
	if !(c4 < c16 && c16 < c64) {
		t.Fatalf("allreduce cost not increasing: %v, %v, %v", c4, c16, c64)
	}
}

func TestNICContentionSerializes(t *testing.T) {
	// Many ranks on one node sending large messages to another node
	// must take longer than a single rank doing one transfer, because
	// the 1 GbE injection port serializes them.
	elapsed := func(senders int) units.Seconds {
		p := 2 * senders
		cfg := testConfig(p, senders) // node 0: senders, node 1: receivers
		n := 1 << 15                  // 256 KiB each, rendezvous
		st, err := Run(cfg, func(r *Rank) {
			buf := make([]float64, n)
			if r.ID() < senders {
				r.Send(r.ID()+senders, 0, buf)
			} else {
				r.Recv(r.ID()-senders, 0, buf)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.End
	}
	one, eight := elapsed(1), elapsed(8)
	if eight < 6*one {
		t.Fatalf("NIC contention too weak: 8 senders %v vs 1 sender %v", eight, one)
	}
}

func TestAllreduceScalarQuick(t *testing.T) {
	// Property: for any rank values, AllreduceScalar(sum) equals the
	// sequential sum on every rank, with every algorithm.
	f := func(vals []float64, algoPick uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 24 {
			vals = vals[:24]
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true // skip degenerate inputs
			}
		}
		p := len(vals)
		algo := AllreduceAlgo(int(algoPick) % 3)
		cfg := testConfig(p, 3)
		cfg.Allreduce = algo
		want := 0.0
		for _, v := range vals {
			want += v
		}
		ok := true
		_, err := Run(cfg, func(r *Rank) {
			got := r.AllreduceScalar(vals[r.ID()], OpSum)
			if math.Abs(got-want) > 1e-6*(math.Abs(want)+1) {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Ranks: 4},
		{Ranks: 4, NodeOf: func(int) int { return 0 }},
		{Ranks: 4, NodeOf: func(int) int { return 0 }, Nodes: 1},
		{Ranks: 4, NodeOf: func(int) int { return 0 }, Nodes: 1,
			Path: func(int, int) *fabric.Transport { return nil }},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, func(*Rank) {}); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
}
