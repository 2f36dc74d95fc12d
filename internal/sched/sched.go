// Package sched is the SLURM-ish layer: it turns "run R ranks with T
// threads each on N nodes" into a validated placement the MPI config
// consumes, and charges job-launch costs.
package sched

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/units"
)

// Placement is the rank→node distribution policy.
type Placement int

// Placement policies.
const (
	// PlaceBlock fills each node before moving to the next (SLURM
	// --distribution=block), maximizing intra-node neighbours.
	PlaceBlock Placement = iota
	// PlaceCyclic deals ranks round-robin across nodes.
	PlaceCyclic
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceBlock:
		return "block"
	case PlaceCyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Job is a validated launch plan.
type Job struct {
	// Cluster is the target machine.
	Cluster *cluster.Cluster
	// Nodes is the allocation size.
	Nodes int
	// Ranks is the MPI world size.
	Ranks int
	// ThreadsPerRank is the OpenMP team width per rank.
	ThreadsPerRank int
	// Placement is the distribution policy.
	Placement Placement
	// RanksPerNode is Ranks/Nodes (validated to divide evenly).
	RanksPerNode int
}

// Plan validates a hybrid configuration against the cluster: the ranks
// must divide evenly over the nodes and ranks×threads must not
// oversubscribe cores.
func Plan(c *cluster.Cluster, nodes, ranks, threads int, place Placement) (*Job, error) {
	if _, err := c.Allocate(nodes); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("sched: %d ranks", ranks)
	}
	if threads <= 0 {
		return nil, fmt.Errorf("sched: %d threads per rank", threads)
	}
	if ranks%nodes != 0 {
		return nil, fmt.Errorf("sched: %d ranks do not divide over %d nodes", ranks, nodes)
	}
	rpn := ranks / nodes
	if rpn*threads > c.CoresPerNode() {
		return nil, fmt.Errorf("sched: %d ranks/node × %d threads oversubscribes %d cores on %s",
			rpn, threads, c.CoresPerNode(), c.Name)
	}
	return &Job{
		Cluster:        c,
		Nodes:          nodes,
		Ranks:          ranks,
		ThreadsPerRank: threads,
		Placement:      place,
		RanksPerNode:   rpn,
	}, nil
}

// NodeOf maps a rank to its node under the job's placement.
func (j *Job) NodeOf(rank int) int {
	if rank < 0 || rank >= j.Ranks {
		panic(fmt.Sprintf("sched: rank %d outside world of %d", rank, j.Ranks))
	}
	switch j.Placement {
	case PlaceBlock:
		return rank / j.RanksPerNode
	case PlaceCyclic:
		return rank % j.Nodes
	default:
		panic(fmt.Sprintf("sched: unknown placement %d", int(j.Placement)))
	}
}

// SameNode reports whether two ranks share a node.
func (j *Job) SameNode(a, b int) bool { return j.NodeOf(a) == j.NodeOf(b) }

// LaunchLatency models srun's fan-out: a tree broadcast of the task
// launch over the allocation plus a constant per-node task spawn.
func (j *Job) LaunchLatency() units.Seconds {
	depth := 0
	for n := 1; n < j.Nodes; n <<= 1 {
		depth++
	}
	return 120*units.Millisecond + units.Seconds(depth)*18*units.Millisecond
}
