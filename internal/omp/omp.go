// Package omp models OpenMP-style intra-rank threading for the hybrid
// MPI×OpenMP configurations of the paper's Fig. 1 (8×14 … 112×1).
//
// The cost model charges a parallel region with: a fork/join and
// barrier cost growing with team size, an Amdahl serial fraction, a
// roofline bound combining compute rate and shared memory bandwidth, a
// NUMA penalty when the team spans sockets, and the load imbalance a
// static loop schedule pays.
package omp

import (
	"repro/internal/topology"
	"repro/internal/units"
)

// Region describes one parallel region's resource demands.
type Region struct {
	// Flops is the floating-point work in the region.
	Flops units.Flops
	// MemBytes is the memory traffic the region generates (the
	// bandwidth side of the roofline).
	MemBytes units.ByteSize
}

// Model holds the machine-dependent constants of the cost model.
type Model struct {
	// Node is the hardware the team runs on.
	Node topology.NodeSpec
	// RanksPerNode is how many MPI ranks share the node: they compete
	// for memory bandwidth. 0 or 1 means the team owns the node.
	RanksPerNode int
	// ForkJoin is the fixed cost of opening and closing a region.
	ForkJoin units.Seconds
	// BarrierPerThread is the per-thread increment of a team barrier.
	BarrierPerThread units.Seconds
	// SerialFraction is the Amdahl fraction of a region's work executed
	// by one thread (reduction tails, boundary fix-ups).
	SerialFraction float64
	// Imbalance is the relative spread of per-iteration work (0 =
	// perfectly balanced). Loops are scheduled statically, so a team
	// pays it in full.
	Imbalance float64
}

// DefaultModel returns calibrated constants for a node.
func DefaultModel(node topology.NodeSpec) Model {
	return Model{
		Node:             node,
		RanksPerNode:     1,
		ForkJoin:         1.5 * units.Microsecond,
		BarrierPerThread: 0.25 * units.Microsecond,
		SerialFraction:   0.015,
		Imbalance:        0.07,
	}
}

// RegionTime returns the modelled wall time of the region on a team of
// the given width, assuming compact thread binding.
func (m Model) RegionTime(reg Region, threads int) units.Seconds {
	if threads < 1 {
		threads = 1
	}
	maxThreads := m.Node.CoresPerNode()
	if threads > maxThreads {
		threads = maxThreads
	}

	coreRate := m.Node.CPU.EffectiveCoreRate
	serial := coreRate.TimeFor(units.Flops(float64(reg.Flops) * m.SerialFraction))
	parWork := units.Flops(float64(reg.Flops) * (1 - m.SerialFraction))

	// Compute side of the roofline.
	compute := coreRate.TimeFor(parWork) / units.Seconds(threads)

	// Memory side of the roofline. A team draws at most
	// threads × per-core bandwidth, and no more than its fair share of
	// the node's total when RanksPerNode ranks compete; teams spanning
	// sockets pay the NUMA penalty on top.
	spanned := m.Node.SocketsSpanned(threads)
	demand := m.Node.CPU.PerCoreMemBW * units.Rate(threads)
	rpn := m.RanksPerNode
	if rpn < 1 {
		rpn = 1
	}
	share := m.Node.TotalMemBandwidth() / units.Rate(rpn)
	bw := demand
	if share < bw {
		bw = share
	}
	if spanned > 1 {
		bw = units.Rate(float64(bw) * m.Node.NUMARemotePenalty)
	}
	memory := bw.TimeFor(reg.MemBytes)

	body := units.Max(compute, memory)
	if threads == 1 {
		return serial + body
	}
	// The conversions round each product, so no GOARCH fuses one with
	// the sums into a multiply-add.
	imbalance := units.Seconds(float64(body * units.Seconds(m.Imbalance)))
	overhead := m.ForkJoin + units.Seconds(float64(units.Seconds(threads)*m.BarrierPerThread))
	return serial + body + imbalance + overhead
}
