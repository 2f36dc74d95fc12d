// Package omp models OpenMP-style intra-rank threading for the hybrid
// MPI×OpenMP configurations of the paper's Fig. 1 (8×14 … 112×1).
//
// The cost model charges a parallel region with: a fork/join and
// barrier cost growing with team size, an Amdahl serial fraction, a
// roofline bound combining compute rate and shared memory bandwidth,
// and a NUMA penalty when the team spans sockets.
package omp

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/units"
)

// Schedule is the loop scheduling policy. It affects the load-imbalance
// term of the region cost.
type Schedule int

// Available schedules.
const (
	// ScheduleStatic splits iterations evenly up front: no scheduling
	// overhead, full exposure to iteration imbalance.
	ScheduleStatic Schedule = iota
	// ScheduleDynamic hands out chunks on demand: per-chunk overhead,
	// imbalance smoothed to one chunk.
	ScheduleDynamic
	// ScheduleGuided shrinks chunk sizes geometrically: intermediate.
	ScheduleGuided
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return fmt.Sprintf("schedule(%d)", int(s))
	}
}

// Region describes one parallel region's resource demands.
type Region struct {
	// Flops is the floating-point work in the region.
	Flops units.Flops
	// MemBytes is the memory traffic the region generates (the
	// bandwidth side of the roofline).
	MemBytes units.ByteSize
	// SerialFraction is the Amdahl fraction executed by one thread
	// (reductions tails, boundary fix-ups).
	SerialFraction float64
	// Imbalance is the relative spread of per-iteration work (0 =
	// perfectly balanced). Static scheduling pays it in full.
	Imbalance float64
	// Schedule is the loop scheduling policy.
	Schedule Schedule
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
	// DynamicChunkCost is the bookkeeping cost per dynamic chunk.
	DynamicChunkCost units.Seconds
}

// DefaultModel returns calibrated constants for a node.
func DefaultModel(node topology.NodeSpec) Model {
	return Model{
		Node:             node,
		RanksPerNode:     1,
		ForkJoin:         1.5 * units.Microsecond,
		BarrierPerThread: 0.25 * units.Microsecond,
		DynamicChunkCost: 0.1 * units.Microsecond,
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
	serial := coreRate.TimeFor(units.Flops(float64(reg.Flops) * reg.SerialFraction))
	parWork := units.Flops(float64(reg.Flops) * (1 - reg.SerialFraction))

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

	// Load imbalance: static pays the full spread; dynamic smooths it
	// but pays chunk bookkeeping; guided sits between.
	var imbalance, schedOverhead units.Seconds
	switch reg.Schedule {
	case ScheduleStatic:
		imbalance = body * units.Seconds(reg.Imbalance)
	case ScheduleDynamic:
		imbalance = body * units.Seconds(reg.Imbalance*0.15)
		chunks := 32 * threads
		schedOverhead = units.Seconds(chunks) * m.DynamicChunkCost
	case ScheduleGuided:
		imbalance = body * units.Seconds(reg.Imbalance*0.35)
		chunks := 8 * threads
		schedOverhead = units.Seconds(chunks) * m.DynamicChunkCost
	}
	if threads == 1 {
		imbalance = 0
		schedOverhead = 0
	}

	overhead := m.ForkJoin + units.Seconds(threads)*m.BarrierPerThread
	if threads == 1 {
		overhead = 0
	}
	return serial + body + imbalance + schedOverhead + overhead
}

// Efficiency reports the parallel efficiency of a region at the given
// team width: T(1)/(threads·T(threads)).
func (m Model) Efficiency(reg Region, threads int) float64 {
	t1 := m.RegionTime(reg, 1)
	tn := m.RegionTime(reg, threads)
	if tn <= 0 {
		return 0
	}
	return float64(t1) / (float64(threads) * float64(tn))
}
