package container

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/units"
)

// BareMetal is the reference execution: no image, host MPI, native
// fabric, zero container costs.
type BareMetal struct{}

// Name implements Runtime.
func (BareMetal) Name() string { return "Bare-metal" }

// Available implements Runtime; bare metal is always available.
func (BareMetal) Available(*cluster.Cluster) error { return nil }

// ImageFor implements Runtime; bare metal uses no image.
func (BareMetal) ImageFor(*Image) (*Image, error) { return nil, nil }

// Deploy implements Runtime: the application binary already sits on the
// shared filesystem; deployment is a metadata touch per node.
func (BareMetal) Deploy(c *cluster.Cluster, _ *Image, nodes int) (DeployReport, error) {
	if nodes < 1 {
		return DeployReport{}, fmt.Errorf("container: deploy on %d nodes", nodes)
	}
	return DeployReport{
		Runtime:   "Bare-metal",
		Image:     "(none)",
		Nodes:     nodes,
		StartTime: c.SharedFS.MetadataLatency, // binary stat/open
	}, nil
}

// ExecProfile implements Runtime.
func (BareMetal) ExecProfile(c *cluster.Cluster, _ *Image) (ExecProfile, error) {
	return ExecProfile{
		RuntimeName:     "Bare-metal",
		IntraNode:       c.SharedMemTransport(),
		InterNode:       c.Interconnect.Native,
		ComputeDilation: 1.0,
		LaunchPerRank:   0,
		FabricPath:      c.Interconnect.Native.Name,
	}, nil
}

// Docker runs each MPI rank in its own fully isolated container: root
// daemon, cgroups, and per-container network namespaces. The isolation
// is exactly what hurts it as MPI scales — ranks cannot use shared
// memory, so even intra-node traffic crosses veth pairs, the docker0
// bridge, and iptables NAT.
type Docker struct {
	// Version documents the deployed release (1.11.1 on Lenox).
	Version string
}

// Name implements Runtime.
func (Docker) Name() string { return "Docker" }

// Available implements Runtime: the daemon needs root.
func (Docker) Available(c *cluster.Cluster) error {
	if !c.AdminRights {
		return fmt.Errorf("%w: Docker daemon on %s", ErrNeedsRoot, c.Name)
	}
	return nil
}

// ImageFor implements Runtime: Docker runs OCI images directly.
func (Docker) ImageFor(oci *Image) (*Image, error) {
	if oci.Format != FormatOCI {
		return nil, fmt.Errorf("%w: Docker needs OCI layers, got %v", ErrWrongFormat, oci.Format)
	}
	return oci, nil
}

// Deploy implements Runtime: every node's daemon pulls all layers from
// the registry through the shared uplink (no peer cache in 1.11), then
// extracts them onto the local storage driver.
func (d Docker) Deploy(c *cluster.Cluster, img *Image, nodes int) (DeployReport, error) {
	if err := d.Available(c); err != nil {
		return DeployReport{}, err
	}
	if img.Format != FormatOCI {
		return DeployReport{}, fmt.Errorf("%w: Docker deploys OCI images", ErrWrongFormat)
	}
	if nodes < 1 {
		return DeployReport{}, fmt.Errorf("container: deploy on %d nodes", nodes)
	}
	wire := img.CompressedSize() * units.ByteSize(nodes)
	// The conversions here and in the other Deploy sums round each
	// product, so no GOARCH fuses one with a sum into a multiply-add.
	pull := units.Seconds(float64(c.RegistryRTT*units.Seconds(len(img.Layers)))) +
		units.Rate(c.RegistryBW).TimeFor(wire)
	// Layer extraction runs node-locally in parallel across nodes:
	// gunzip+untar onto the storage driver, disk-write bound.
	stage := c.LocalDisk.WriteTime(img.Size())
	// Daemon creates the container environment per node: network
	// namespace, cgroup hierarchy, overlay mount.
	start := units.Seconds(nodes) * 80 * units.Millisecond
	return DeployReport{
		Runtime:    d.Name(),
		Image:      img.Ref(),
		Nodes:      nodes,
		WireSize:   wire,
		StoredSize: img.Size() * units.ByteSize(nodes),
		PullTime:   pull,
		StageTime:  stage,
		StartTime:  start,
	}, nil
}

// ExecProfile implements Runtime.
func (d Docker) ExecProfile(c *cluster.Cluster, img *Image) (ExecProfile, error) {
	if err := d.Available(c); err != nil {
		return ExecProfile{}, err
	}
	if err := checkCompat(c, img); err != nil {
		return ExecProfile{}, err
	}
	if img.Format != FormatOCI {
		return ExecProfile{}, fmt.Errorf("%w: Docker executes OCI images", ErrWrongFormat)
	}
	inter, _ := interPath(c, img)
	nat := fabric.DockerNAT(inter)
	return ExecProfile{
		RuntimeName:     d.Name(),
		IntraNode:       fabric.DockerBridge(),
		InterNode:       nat,
		ComputeDilation: 1.02, // cgroup accounting + overlay page-cache misses
		LaunchPerRank:   350 * units.Millisecond,
		FabricPath:      nat.Name,
	}, nil
}

// Singularity executes a single SIF file via a SUID starter, keeping
// the host's network and IPC namespaces — MPI behaves exactly as on
// the host, which is why it tracks bare metal in every figure.
type Singularity struct {
	// Version documents the deployed release (2.4–2.5 in the study).
	Version string
}

// Name implements Runtime.
func (Singularity) Name() string { return "Singularity" }

// Available implements Runtime: the SUID starter ships pre-installed on
// all four machines.
func (Singularity) Available(*cluster.Cluster) error { return nil }

// ImageFor implements Runtime: convert OCI to SIF.
func (Singularity) ImageFor(oci *Image) (*Image, error) { return ConvertToSIF(oci) }

// Deploy implements Runtime: pull once, convert once, drop the single
// SIF file on the shared filesystem; nodes only stat/open it.
func (s Singularity) Deploy(c *cluster.Cluster, img *Image, nodes int) (DeployReport, error) {
	if img.Format != FormatSIF {
		return DeployReport{}, fmt.Errorf("%w: Singularity deploys SIF images", ErrWrongFormat)
	}
	if nodes < 1 {
		return DeployReport{}, fmt.Errorf("container: deploy on %d nodes", nodes)
	}
	wire := img.CompressedSize()
	pull := c.RegistryRTT + units.Rate(c.RegistryBW).TimeFor(wire)
	// singularity build: decompress + squash, CPU bound at the login
	// node, then one write to the parallel filesystem.
	convert := convertRate.TimeFor(img.Size())
	stage := c.SharedFS.WriteTime(img.CompressedSize(), 1)
	// Per-node start: stat the SIF, SUID starter mounts it read-only.
	start := units.Seconds(float64(units.Seconds(nodes)*c.SharedFS.MetadataLatency)) +
		units.Seconds(float64(units.Seconds(nodes)*12*units.Millisecond))
	return DeployReport{
		Runtime:     s.Name(),
		Image:       img.Ref(),
		Nodes:       nodes,
		WireSize:    wire,
		StoredSize:  img.CompressedSize(), // SIF stays compressed on disk
		PullTime:    pull,
		ConvertTime: convert,
		StageTime:   stage,
		StartTime:   start,
	}, nil
}

// ExecProfile implements Runtime.
func (s Singularity) ExecProfile(c *cluster.Cluster, img *Image) (ExecProfile, error) {
	if err := checkCompat(c, img); err != nil {
		return ExecProfile{}, err
	}
	if img.Format != FormatSIF {
		return ExecProfile{}, fmt.Errorf("%w: Singularity executes SIF images", ErrWrongFormat)
	}
	inter, path := interPath(c, img)
	return ExecProfile{
		RuntimeName:     s.Name(),
		IntraNode:       c.SharedMemTransport(), // host IPC namespace: shm works
		InterNode:       inter,
		ComputeDilation: 1.0,
		LaunchPerRank:   15 * units.Millisecond,
		FabricPath:      path,
	}, nil
}

// Shifter routes Docker images through an image gateway that flattens
// them to squashfs once per image; compute nodes loop-mount the result
// from the parallel filesystem. Like Singularity it keeps host network
// and IPC namespaces.
type Shifter struct {
	// Version documents the deployed release (16.08.3 on Lenox).
	Version string
}

// Name implements Runtime.
func (Shifter) Name() string { return "Shifter" }

// Available implements Runtime: the gateway is a site service; the
// study had it only where it had root to install it.
func (Shifter) Available(c *cluster.Cluster) error {
	if !c.AdminRights {
		return fmt.Errorf("%w: Shifter image gateway on %s", ErrNeedsRoot, c.Name)
	}
	return nil
}

// ImageFor implements Runtime: gateway conversion to squashfs.
func (Shifter) ImageFor(oci *Image) (*Image, error) { return ConvertToSquashFS(oci) }

// Deploy implements Runtime: the gateway pulls the OCI layers once,
// squashes them, writes the squashfs to the shared filesystem; nodes
// loop-mount it (metadata cost only).
func (sh Shifter) Deploy(c *cluster.Cluster, img *Image, nodes int) (DeployReport, error) {
	if err := sh.Available(c); err != nil {
		return DeployReport{}, err
	}
	if img.Format != FormatSquashFS {
		return DeployReport{}, fmt.Errorf("%w: Shifter deploys squashfs images", ErrWrongFormat)
	}
	if nodes < 1 {
		return DeployReport{}, fmt.Errorf("container: deploy on %d nodes", nodes)
	}
	wire := img.CompressedSize()
	pull := c.RegistryRTT + units.Rate(c.RegistryBW).TimeFor(wire)
	convert := convertRate.TimeFor(img.Size())
	stage := c.SharedFS.WriteTime(img.CompressedSize(), 1)
	start := units.Seconds(float64(units.Seconds(nodes)*c.SharedFS.MetadataLatency)) +
		units.Seconds(float64(units.Seconds(nodes)*20*units.Millisecond))
	return DeployReport{
		Runtime:     sh.Name(),
		Image:       img.Ref(),
		Nodes:       nodes,
		WireSize:    wire,
		StoredSize:  img.CompressedSize(),
		PullTime:    pull,
		ConvertTime: convert,
		StageTime:   stage,
		StartTime:   start,
	}, nil
}

// ExecProfile implements Runtime.
func (sh Shifter) ExecProfile(c *cluster.Cluster, img *Image) (ExecProfile, error) {
	if err := sh.Available(c); err != nil {
		return ExecProfile{}, err
	}
	if err := checkCompat(c, img); err != nil {
		return ExecProfile{}, err
	}
	if img.Format != FormatSquashFS {
		return ExecProfile{}, fmt.Errorf("%w: Shifter executes squashfs images", ErrWrongFormat)
	}
	inter, path := interPath(c, img)
	return ExecProfile{
		RuntimeName:     sh.Name(),
		IntraNode:       c.SharedMemTransport(),
		InterNode:       inter,
		ComputeDilation: 1.0,
		LaunchPerRank:   22 * units.Millisecond,
		FabricPath:      path,
	}, nil
}

// convertRate is the squashing throughput of image conversion
// (decompress + mksquashfs, CPU bound on a login/gateway node).
var convertRate = 140 * units.MBps

// Runtimes returns the four runtimes in the paper's comparison order.
func Runtimes() []Runtime {
	return []Runtime{BareMetal{}, Docker{Version: "1.11.1"}, Singularity{Version: "2.4.5"}, Shifter{Version: "16.08.3"}}
}

// ByName finds a runtime by its display name.
func ByName(name string) (Runtime, error) {
	for _, rt := range Runtimes() {
		if rt.Name() == name {
			return rt, nil
		}
	}
	return nil, fmt.Errorf("container: unknown runtime %q", name)
}

// ByNameVersion finds a runtime by display name at an explicit
// version. The version is part of a cell's content identity, so
// callers reproducing a specific measurement (scenario specs) must be
// able to pin it; an empty version keeps the study default.
func ByNameVersion(name, version string) (Runtime, error) {
	rt, err := ByName(name)
	if err != nil || version == "" {
		return rt, err
	}
	switch rt.(type) {
	case BareMetal:
		return nil, fmt.Errorf("container: bare metal has no version")
	case Docker:
		return Docker{Version: version}, nil
	case Singularity:
		return Singularity{Version: version}, nil
	case Shifter:
		return Shifter{Version: version}, nil
	}
	return rt, nil
}
