package sched

import (
	"testing"

	"repro/internal/cluster"
)

func TestPlanValidates(t *testing.T) {
	lenox := cluster.Lenox()
	// The paper's five Fig. 1 configurations must all plan cleanly.
	for _, c := range []struct{ ranks, threads int }{
		{8, 14}, {16, 7}, {28, 4}, {56, 2}, {112, 1},
	} {
		job, err := Plan(lenox, 4, c.ranks, c.threads, PlaceBlock)
		if err != nil {
			t.Fatalf("%dx%d: %v", c.ranks, c.threads, err)
		}
		if got := job.Ranks * job.ThreadsPerRank; got != 112 {
			t.Fatalf("%dx%d occupies %d cores, want 112", c.ranks, c.threads, got)
		}
	}
}

func TestPlanRejects(t *testing.T) {
	lenox := cluster.Lenox()
	cases := []struct {
		nodes, ranks, threads int
	}{
		{5, 10, 1},  // too many nodes
		{4, 0, 1},   // no ranks
		{4, 8, 0},   // no threads
		{4, 10, 1},  // ranks don't divide nodes
		{4, 116, 1}, // oversubscription
		{4, 56, 3},  // oversubscription via threads
		{0, 8, 1},   // no nodes
	}
	for _, c := range cases {
		if _, err := Plan(lenox, c.nodes, c.ranks, c.threads, PlaceBlock); err == nil {
			t.Errorf("Plan(%d nodes, %d ranks, %d threads) should fail", c.nodes, c.ranks, c.threads)
		}
	}
}

func TestBlockPlacement(t *testing.T) {
	job, err := Plan(cluster.Lenox(), 4, 8, 1, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for r, n := range want {
		if job.NodeOf(r) != n {
			t.Fatalf("block: rank %d on node %d, want %d", r, job.NodeOf(r), n)
		}
	}
	if !job.SameNode(0, 1) || job.SameNode(1, 2) {
		t.Fatal("SameNode wrong for block placement")
	}
}

func TestCyclicPlacement(t *testing.T) {
	job, err := Plan(cluster.Lenox(), 4, 8, 1, PlaceCyclic)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for r, n := range want {
		if job.NodeOf(r) != n {
			t.Fatalf("cyclic: rank %d on node %d, want %d", r, job.NodeOf(r), n)
		}
	}
}

func TestNodeOfBounds(t *testing.T) {
	job, _ := Plan(cluster.Lenox(), 2, 4, 1, PlaceBlock)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank should panic")
		}
	}()
	job.NodeOf(4)
}

func TestLaunchLatencyGrowsWithNodes(t *testing.T) {
	mn4 := cluster.MareNostrum4()
	j4, _ := Plan(mn4, 4, 4*48, 1, PlaceBlock)
	j256, _ := Plan(mn4, 256, 256*48, 1, PlaceBlock)
	if j256.LaunchLatency() <= j4.LaunchLatency() {
		t.Fatalf("launch latency should grow with allocation: %v vs %v",
			j4.LaunchLatency(), j256.LaunchLatency())
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceBlock.String() != "block" || PlaceCyclic.String() != "cyclic" {
		t.Fatal("placement names wrong")
	}
}
