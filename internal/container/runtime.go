package container

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/units"
)

// ExecProfile is what a runtime hands the MPI layer: which transports
// ranks get, how computation is dilated, and what launching costs.
type ExecProfile struct {
	// RuntimeName identifies the producing runtime in reports.
	RuntimeName string
	// IntraNode is the path between ranks on the same node.
	IntraNode fabric.Transport
	// InterNode is the path between ranks on different nodes.
	InterNode fabric.Transport
	// ComputeDilation multiplies compute durations (cgroup accounting,
	// storage-driver page-cache overhead). 1.0 = bare metal.
	ComputeDilation float64
	// LaunchPerRank is the per-rank container instantiation cost,
	// charged as start-up skew.
	LaunchPerRank units.Seconds
	// FabricPath documents which network path inter-node traffic uses.
	FabricPath string
}

// DeployReport breaks down the time from "job submitted" to "image
// ready on every allocated node" — the paper's deployment-overhead
// metric.
type DeployReport struct {
	// Runtime and Image identify the deployment.
	Runtime string `json:"Runtime"`
	Image   string `json:"Image"`
	// Nodes is the allocation size.
	Nodes int `json:"Nodes"`
	// WireSize is the bytes fetched from the registry (after layer
	// dedup), summed over all fetches.
	WireSize units.ByteSize `json:"WireSize"`
	// StoredSize is the image's footprint once staged.
	StoredSize units.ByteSize `json:"StoredSize"`
	// PullTime is registry→cluster transfer time.
	PullTime units.Seconds `json:"PullTime"`
	// ConvertTime is format-conversion time (docker→SIF, gateway
	// squashing). Zero when no conversion happens.
	ConvertTime units.Seconds `json:"ConvertTime"`
	// StageTime distributes/extracts the image onto compute nodes.
	StageTime units.Seconds `json:"StageTime"`
	// StartTime instantiates the container environment on every node
	// (daemon container create, SUID mount, loop mount).
	StartTime units.Seconds `json:"StartTime"`
}

// Total is the full deployment overhead.
func (d DeployReport) Total() units.Seconds {
	return d.PullTime + d.ConvertTime + d.StageTime + d.StartTime
}

// Runtime is a container technology as the study exercises it.
type Runtime interface {
	// Name is the runtime's name, e.g. "Singularity".
	Name() string
	// Available reports whether the runtime can be installed and used
	// on the cluster (Docker needs root).
	Available(c *cluster.Cluster) error
	// ImageFor converts a built OCI image into whatever format this
	// runtime executes. Bare metal returns nil.
	ImageFor(oci *Image) (*Image, error)
	// Deploy computes the deployment overhead of staging img on n
	// nodes of the cluster.
	Deploy(c *cluster.Cluster, img *Image, nodes int) (DeployReport, error)
	// ExecProfile validates img against the cluster and returns the
	// execution profile MPI runs under.
	ExecProfile(c *cluster.Cluster, img *Image) (ExecProfile, error)
}

// checkCompat validates ISA and host-ABI compatibility, shared by all
// containerized runtimes.
func checkCompat(c *cluster.Cluster, img *Image) error {
	if img == nil {
		return fmt.Errorf("container: nil image")
	}
	if img.Arch != c.ISA() {
		return fmt.Errorf("%w: image %s is %s, host %s is %s",
			ErrWrongArch, img.Ref(), img.Arch, c.Name, c.ISA())
	}
	if img.Kind == SystemSpecific && img.HostABI != c.HostABI {
		return fmt.Errorf("%w: image %s binds %q, host %s provides %q",
			ErrHostABI, img.Ref(), img.HostABI, c.Name, c.HostABI)
	}
	return nil
}

// interPath picks the inter-node transport an image's MPI can drive:
// the native fabric when the host stack is bound (system-specific), the
// TCP fallback when the image is self-contained.
func interPath(c *cluster.Cluster, img *Image) (fabric.Transport, string) {
	if img.Kind == SelfContained {
		t := c.Interconnect.TCPFallback
		return t, t.Name
	}
	t := c.Interconnect.Native
	return t, t.Name
}
