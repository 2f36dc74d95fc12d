// Package topology models compute-node hardware: instruction-set
// architectures, CPU models, sockets, NUMA domains, and the effective
// compute and memory-bandwidth rates the performance model charges.
//
// Rates are *effective* application rates for a memory-bound implicit
// CFD code (sparse kernels dominated by irregular memory traffic), not
// vendor peak numbers. They were calibrated so the reproduced figures
// land in the ranges reported by the paper, "Containers in HPC: A
// Scalability and Portability Study in Production Biological
// Simulations" (Rudyy et al., IPDPS 2019).
package topology

import (
	"fmt"

	"repro/internal/units"
)

// ISA is a processor instruction-set architecture. Container images are
// built for exactly one ISA and can only execute on matching hosts —
// this is the hard portability boundary of the paper's §B.2.
type ISA string

// The three architectures in the study plus the Haswell ISA (amd64 too).
const (
	AMD64   ISA = "amd64"
	PPC64LE ISA = "ppc64le"
	ARM64   ISA = "arm64"
)

// CPUModel describes one processor package (a socket's worth of CPU).
type CPUModel struct {
	// Name is the marketing name, e.g. "Intel Xeon Platinum 8160".
	Name string `json:"Name"`
	// ISA is the instruction set the package executes.
	ISA ISA `json:"ISA"`
	// Cores is the number of physical cores per package.
	Cores int `json:"Cores"`
	// EffectiveCoreRate is the sustained per-core throughput on the
	// Alya-like workload (sparse FE assembly + Krylov solves).
	EffectiveCoreRate units.FlopRate `json:"EffectiveCoreRate"`
	// MemBandwidth is the sustained per-socket memory bandwidth
	// (STREAM-like) shared by all cores of the package.
	MemBandwidth units.Rate `json:"MemBandwidth"`
	// PerCoreMemBW caps what a single core can draw from the memory
	// subsystem; a one-thread rank cannot saturate its socket.
	PerCoreMemBW units.Rate `json:"PerCoreMemBW"`
}

// NodeSpec is a compute node: a number of identical sockets plus the
// NUMA behaviour that the hybrid MPI×OpenMP model needs.
type NodeSpec struct {
	// CPU is the socket processor model.
	CPU CPUModel `json:"CPU"`
	// Sockets is the number of CPU packages per node.
	Sockets int `json:"Sockets"`
	// NUMARemotePenalty multiplies effective memory bandwidth for
	// threads whose team spans sockets (remote accesses + coherence).
	// 1.0 means no penalty; typical values are 0.75–0.9.
	NUMARemotePenalty float64 `json:"NUMARemotePenalty"`
	// SharedMemRate is the intra-node MPI shared-memory copy bandwidth.
	SharedMemRate units.Rate `json:"SharedMemRate"`
	// SharedMemLatency is the intra-node MPI shared-memory latency.
	SharedMemLatency units.Seconds `json:"SharedMemLatency"`
}

// CoresPerNode returns the total physical cores on the node.
func (n NodeSpec) CoresPerNode() int { return n.CPU.Cores * n.Sockets }

// TotalMemBandwidth returns the node's aggregate memory bandwidth.
func (n NodeSpec) TotalMemBandwidth() units.Rate {
	return n.CPU.MemBandwidth * units.Rate(n.Sockets)
}

// Validate reports configuration errors (zero cores, missing rates).
func (n NodeSpec) Validate() error {
	if n.CPU.Cores <= 0 {
		return fmt.Errorf("topology: node %q has %d cores per socket", n.CPU.Name, n.CPU.Cores)
	}
	if n.Sockets <= 0 {
		return fmt.Errorf("topology: node %q has %d sockets", n.CPU.Name, n.Sockets)
	}
	if n.CPU.EffectiveCoreRate <= 0 {
		return fmt.Errorf("topology: node %q has no effective core rate", n.CPU.Name)
	}
	if n.CPU.MemBandwidth <= 0 {
		return fmt.Errorf("topology: node %q has no memory bandwidth", n.CPU.Name)
	}
	if n.CPU.PerCoreMemBW <= 0 {
		return fmt.Errorf("topology: node %q has no per-core memory bandwidth", n.CPU.Name)
	}
	if n.NUMARemotePenalty <= 0 || n.NUMARemotePenalty > 1 {
		return fmt.Errorf("topology: node %q NUMA penalty %v out of (0,1]", n.CPU.Name, n.NUMARemotePenalty)
	}
	return nil
}

// SocketsSpanned returns how many sockets a team of the given width
// occupies under compact (cores-first) binding.
func (n NodeSpec) SocketsSpanned(threads int) int {
	if threads <= 0 {
		return 1
	}
	span := (threads + n.CPU.Cores - 1) / n.CPU.Cores
	if span < 1 {
		span = 1
	}
	if span > n.Sockets {
		span = n.Sockets
	}
	return span
}

// The four processor models used in the paper's clusters. Effective
// rates are calibrated for the Alya-like workload; see package comment.
var (
	// HaswellE52697v3 powers the Lenox cluster (14 cores/socket).
	HaswellE52697v3 = CPUModel{
		Name:              "Intel Xeon E5-2697 v3",
		ISA:               AMD64,
		Cores:             14,
		EffectiveCoreRate: units.GFlopsRate(2.0),
		MemBandwidth:      55 * units.GBps,
		PerCoreMemBW:      11 * units.GBps,
	}
	// SkylakePlatinum8160 powers MareNostrum4 (24 cores/socket).
	SkylakePlatinum8160 = CPUModel{
		Name:              "Intel Xeon Platinum 8160",
		ISA:               AMD64,
		Cores:             24,
		EffectiveCoreRate: units.GFlopsRate(2.6),
		MemBandwidth:      105 * units.GBps,
		PerCoreMemBW:      13 * units.GBps,
	}
	// Power9_8335GTG powers CTE-POWER (20 cores/socket).
	Power9_8335GTG = CPUModel{
		Name:              "IBM Power9 8335-GTG",
		ISA:               PPC64LE,
		Cores:             20,
		EffectiveCoreRate: units.GFlopsRate(2.3),
		MemBandwidth:      120 * units.GBps,
		PerCoreMemBW:      18 * units.GBps,
	}
	// ThunderXCN8890 powers the Mont-Blanc ThunderX mini-cluster
	// (48 cores/socket).
	ThunderXCN8890 = CPUModel{
		Name:              "Cavium ThunderX CN8890",
		ISA:               ARM64,
		Cores:             48,
		EffectiveCoreRate: units.GFlopsRate(0.7),
		MemBandwidth:      40 * units.GBps,
		PerCoreMemBW:      2.5 * units.GBps,
	}
)

// Node presets matching the paper's cluster descriptions.
var (
	// LenoxNode: 2× E5-2697v3, 28 cores.
	LenoxNode = NodeSpec{
		CPU:               HaswellE52697v3,
		Sockets:           2,
		NUMARemotePenalty: 0.85,
		SharedMemRate:     8 * units.GBps,
		SharedMemLatency:  0.5 * units.Microsecond,
	}
	// MareNostrum4Node: 2× Platinum 8160, 48 cores.
	MareNostrum4Node = NodeSpec{
		CPU:               SkylakePlatinum8160,
		Sockets:           2,
		NUMARemotePenalty: 0.88,
		SharedMemRate:     10 * units.GBps,
		SharedMemLatency:  0.4 * units.Microsecond,
	}
	// CTEPowerNode: 2× Power9 8335-GTG, 40 cores.
	CTEPowerNode = NodeSpec{
		CPU:               Power9_8335GTG,
		Sockets:           2,
		NUMARemotePenalty: 0.85,
		SharedMemRate:     12 * units.GBps,
		SharedMemLatency:  0.45 * units.Microsecond,
	}
	// ThunderXNode: 2× CN8890, 96 cores.
	ThunderXNode = NodeSpec{
		CPU:               ThunderXCN8890,
		Sockets:           2,
		NUMARemotePenalty: 0.80,
		SharedMemRate:     5 * units.GBps,
		SharedMemLatency:  0.8 * units.Microsecond,
	}
)
