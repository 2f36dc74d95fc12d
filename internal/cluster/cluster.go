// Package cluster assembles topology, fabric, and storage into the four
// machines of the study and handles node allocation.
package cluster

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/units"
)

// Cluster is one HPC machine.
type Cluster struct {
	// Name is the machine name, e.g. "MareNostrum4".
	Name string `json:"Name"`
	// Node describes every (homogeneous) compute node.
	Node topology.NodeSpec `json:"Node"`
	// TotalNodes is the machine size; allocations cannot exceed it.
	TotalNodes int `json:"TotalNodes"`
	// Interconnect is the inter-node network.
	Interconnect fabric.Fabric `json:"Interconnect"`
	// SharedFS is the parallel filesystem visible from all nodes.
	SharedFS storage.ParallelFS `json:"SharedFS"`
	// LocalDisk is the per-node drive (Docker image storage).
	LocalDisk storage.LocalDisk `json:"LocalDisk"`
	// RegistryBW and RegistryRTT describe the uplink to the external
	// image registry (Docker Hub class).
	RegistryBW  units.Rate    `json:"RegistryBW"`
	RegistryRTT units.Seconds `json:"RegistryRTT"`
	// HostABI names the host's MPI/fabric software stack. A
	// system-specific image binds the host stack at run time and
	// therefore only works where the ABI matches.
	HostABI string `json:"HostABI"`
	// AdminRights records whether the study had root on the machine —
	// Docker requires it, which is why only Lenox ran Docker.
	AdminRights bool `json:"AdminRights"`
}

// Validate checks the full configuration.
func (c *Cluster) Validate() error {
	if c.TotalNodes <= 0 {
		return fmt.Errorf("cluster %q has %d nodes", c.Name, c.TotalNodes)
	}
	if err := c.Node.Validate(); err != nil {
		return fmt.Errorf("cluster %q: %w", c.Name, err)
	}
	if err := c.Interconnect.Validate(); err != nil {
		return fmt.Errorf("cluster %q: %w", c.Name, err)
	}
	if err := c.SharedFS.Validate(); err != nil {
		return fmt.Errorf("cluster %q: %w", c.Name, err)
	}
	if err := c.LocalDisk.Validate(); err != nil {
		return fmt.Errorf("cluster %q: %w", c.Name, err)
	}
	if c.HostABI == "" {
		return fmt.Errorf("cluster %q has no host ABI", c.Name)
	}
	return nil
}

// ISA returns the cluster's processor architecture.
func (c *Cluster) ISA() topology.ISA { return c.Node.CPU.ISA }

// CoresPerNode returns physical cores per node.
func (c *Cluster) CoresPerNode() int { return c.Node.CoresPerNode() }

// Allocate checks that n nodes fit the machine and returns the node ids.
func (c *Cluster) Allocate(n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster %q: allocation of %d nodes", c.Name, n)
	}
	if n > c.TotalNodes {
		return nil, fmt.Errorf("cluster %q: allocation of %d nodes exceeds machine size %d",
			c.Name, n, c.TotalNodes)
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes, nil
}

// SharedMemTransport returns the intra-node MPI path for this machine.
func (c *Cluster) SharedMemTransport() fabric.Transport {
	return fabric.SharedMemory(c.Node.SharedMemRate, c.Node.SharedMemLatency)
}

// Presets for the four machines, as described in the paper's §A.

// Lenox is the 4-node Lenovo cluster with administrative rights, the
// only machine where Docker and Shifter could be installed.
func Lenox() *Cluster {
	return &Cluster{
		Name:         "Lenox",
		Node:         topology.LenoxNode,
		TotalNodes:   4,
		Interconnect: fabric.GigabitEthernet,
		SharedFS: storage.ParallelFS{
			Name:            "nfs",
			AggregateBW:     110 * units.MBps,
			PerClientBW:     110 * units.MBps,
			MetadataLatency: 2 * units.Millisecond,
		},
		LocalDisk: storage.LocalDisk{
			Name:    "sata-hdd",
			ReadBW:  160 * units.MBps,
			WriteBW: 140 * units.MBps,
		},
		RegistryBW:  85 * units.MBps,
		RegistryRTT: 40 * units.Millisecond,
		HostABI:     "lenox-openmpi1.10-tcp",
		AdminRights: true,
	}
}

// MareNostrum4 is BSC's Tier-0 Skylake machine (3456 nodes, Omni-Path).
func MareNostrum4() *Cluster {
	return &Cluster{
		Name:         "MareNostrum4",
		Node:         topology.MareNostrum4Node,
		TotalNodes:   3456,
		Interconnect: fabric.OmniPath100,
		SharedFS: storage.ParallelFS{
			Name:            "gpfs",
			AggregateBW:     80 * units.GBps,
			PerClientBW:     2 * units.GBps,
			MetadataLatency: 0.5 * units.Millisecond,
		},
		LocalDisk: storage.LocalDisk{
			Name:    "ssd",
			ReadBW:  500 * units.MBps,
			WriteBW: 450 * units.MBps,
		},
		RegistryBW:  500 * units.MBps,
		RegistryRTT: 25 * units.Millisecond,
		HostABI:     "mn4-impi2017-psm2",
		AdminRights: false,
	}
}

// CTEPower is BSC's Power9 cluster (52 nodes, InfiniBand EDR).
func CTEPower() *Cluster {
	return &Cluster{
		Name:         "CTE-POWER",
		Node:         topology.CTEPowerNode,
		TotalNodes:   52,
		Interconnect: fabric.InfiniBandEDR,
		SharedFS: storage.ParallelFS{
			Name:            "gpfs",
			AggregateBW:     20 * units.GBps,
			PerClientBW:     2 * units.GBps,
			MetadataLatency: 0.5 * units.Millisecond,
		},
		LocalDisk: storage.LocalDisk{
			Name:    "nvme",
			ReadBW:  2 * units.GBps,
			WriteBW: 1.2 * units.GBps,
		},
		RegistryBW:  500 * units.MBps,
		RegistryRTT: 25 * units.Millisecond,
		HostABI:     "ctepower-smpi10-verbs",
		AdminRights: false,
	}
}

// ThunderX is the Mont-Blanc Armv8 mini-cluster (4 nodes, 40 GbE).
func ThunderX() *Cluster {
	return &Cluster{
		Name:         "ThunderX",
		Node:         topology.ThunderXNode,
		TotalNodes:   4,
		Interconnect: fabric.FortyGigEthernet,
		SharedFS: storage.ParallelFS{
			Name:            "nfs",
			AggregateBW:     400 * units.MBps,
			PerClientBW:     400 * units.MBps,
			MetadataLatency: 2 * units.Millisecond,
		},
		LocalDisk: storage.LocalDisk{
			Name:    "sata-ssd",
			ReadBW:  350 * units.MBps,
			WriteBW: 300 * units.MBps,
		},
		RegistryBW:  85 * units.MBps,
		RegistryRTT: 40 * units.Millisecond,
		HostABI:     "thunderx-openmpi2-tcp",
		AdminRights: false,
	}
}

// All returns the four study machines in the paper's order.
func All() []*Cluster {
	return []*Cluster{Lenox(), MareNostrum4(), CTEPower(), ThunderX()}
}

// ByName finds a preset cluster, case-sensitively.
func ByName(name string) (*Cluster, error) {
	for _, c := range All() {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown machine %q", name)
}
