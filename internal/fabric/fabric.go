// Package fabric models cluster interconnects and the message-transport
// paths MPI traffic can take through them.
//
// A Transport is a LogGP-flavoured cost model for one path (shared
// memory, native Omni-Path, TCP over 1 GbE, the Docker bridge, ...). A
// Fabric bundles the paths one physical network offers: the native
// host-integrated path and the degraded TCP path that a self-contained
// container falls back to when it cannot load the host's verbs/PSM
// stack — the mechanism behind the paper's Fig. 2 and Fig. 3 gaps.
//
// Only a SharesNIC path serializes a node's transfers, each at its own
// transport's Bandwidth. No per-node injection cap exists on the other
// paths: concurrent offloaded transfers from one node do not contend.
// Adding such a cap would move every multi-rank figure.
package fabric

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Transport is the cost model for one message path.
type Transport struct {
	// Name identifies the path in reports, e.g. "omni-path", "ipoib-tcp".
	Name string `json:"Name"`
	// Latency is the zero-byte end-to-end latency (LogGP L).
	Latency units.Seconds `json:"Latency"`
	// Overhead is the per-message CPU time burned at the sending and at
	// the receiving endpoint (LogGP o). It both delays the message and
	// steals core time from computation.
	Overhead units.Seconds `json:"Overhead"`
	// Bandwidth is the per-stream saturation bandwidth (1/G).
	Bandwidth units.Rate `json:"Bandwidth"`
	// EagerThreshold is the message size at or below which the eager
	// protocol applies: the sender fires and forgets. Larger messages
	// use rendezvous: an extra half round-trip handshake and the
	// transfer cannot start before the receiver arrives.
	EagerThreshold units.ByteSize `json:"EagerThreshold"`
	// PerPacketCPU is extra CPU time per MTU-sized packet. Zero for
	// offloaded fabrics; significant for the Docker bridge, where every
	// packet traverses veth, the bridge, and iptables NAT in software.
	PerPacketCPU units.Seconds `json:"PerPacketCPU"`
	// MTU is the packet size used with PerPacketCPU.
	MTU units.ByteSize `json:"MTU"`
	// SharesNIC marks paths that serialize on the node's injection
	// port, so concurrent senders on one node contend.
	SharesNIC bool `json:"SharesNIC"`
}

// Validate reports an unusable transport configuration.
func (t *Transport) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("fabric: transport without a name")
	}
	if t.Bandwidth <= 0 {
		return fmt.Errorf("fabric: transport %q has no bandwidth", t.Name)
	}
	if t.Latency < 0 || t.Overhead < 0 || t.PerPacketCPU < 0 {
		return fmt.Errorf("fabric: transport %q has negative cost parameters", t.Name)
	}
	if t.PerPacketCPU > 0 && t.MTU <= 0 {
		return fmt.Errorf("fabric: transport %q has per-packet cost but no MTU", t.Name)
	}
	return nil
}

// Eager reports whether a message of the given size uses the eager
// protocol on this transport.
func (t *Transport) Eager(size units.ByteSize) bool {
	return size <= t.EagerThreshold
}

// CPUCost is the endpoint CPU time for one message of the given size:
// the per-message overhead plus any per-packet software processing.
func (t *Transport) CPUCost(size units.ByteSize) units.Seconds {
	c := t.Overhead
	if t.PerPacketCPU > 0 && t.MTU > 0 {
		packets := math.Ceil(float64(size) / float64(t.MTU))
		if packets < 1 {
			packets = 1
		}
		// The conversion rounds the product, so no GOARCH fuses it
		// with the sum into one multiply-add.
		c += units.Seconds(float64(units.Seconds(packets) * t.PerPacketCPU))
	}
	return c
}

// WireTime is the occupancy a message imposes on the node injection
// port: size over bandwidth (latency is in flight, not occupancy).
func (t *Transport) WireTime(size units.ByteSize) units.Seconds {
	return t.Bandwidth.TimeFor(size)
}

// Fabric is one physical interconnect with its available paths.
type Fabric struct {
	// Name identifies the interconnect, e.g. "100Gb/s Omni-Path".
	Name string `json:"Name"`
	// Native is the host-integrated path (verbs, PSM2, kernel TCP for
	// Ethernet-only clusters). Bare-metal runs and system-specific
	// containers use it.
	Native Transport `json:"Native"`
	// TCPFallback is the path a self-contained container's bundled MPI
	// reaches without the host fabric libraries: TCP over whatever IP
	// interface the fabric exposes (IPoIB, IPoOPA, or plain Ethernet).
	TCPFallback Transport `json:"TCPFallback"`
}

// Validate checks both paths.
func (f *Fabric) Validate() error {
	if err := f.Native.Validate(); err != nil {
		return err
	}
	return f.TCPFallback.Validate()
}

// Interconnect presets for the four clusters. Latency/bandwidth values
// are representative published microbenchmark figures for each
// technology generation; TCP fallbacks reflect IP-over-fabric
// performance with a bundled, unspecialized MPI.
var (
	// GigabitEthernet is Lenox's 1 GbE TCP network.
	GigabitEthernet = Fabric{
		Name: "1GbE TCP",
		Native: Transport{
			Name:           "tcp-1gbe",
			Latency:        50 * units.Microsecond,
			Overhead:       14 * units.Microsecond,
			Bandwidth:      118 * units.MBps,
			EagerThreshold: 32 * units.KiB,
			SharesNIC:      true,
		},
		// On a plain Ethernet cluster the self-contained container's
		// TCP is nearly as good as the host's: same protocol, slightly
		// more overhead from the container's generic build.
		TCPFallback: Transport{
			Name:           "tcp-1gbe-generic",
			Latency:        55 * units.Microsecond,
			Overhead:       16 * units.Microsecond,
			Bandwidth:      112 * units.MBps,
			EagerThreshold: 32 * units.KiB,
			SharesNIC:      true,
		},
	}

	// OmniPath100 is MareNostrum4's 100 Gb/s Intel Omni-Path.
	OmniPath100 = Fabric{
		Name: "100Gb/s Omni-Path",
		Native: Transport{
			Name:           "opa-psm2",
			Latency:        1.1 * units.Microsecond,
			Overhead:       0.6 * units.Microsecond,
			Bandwidth:      11.2 * units.GBps,
			EagerThreshold: 64 * units.KiB,
		},
		// IP-over-OPA with a bundled ethernet-only MPI: two orders of
		// magnitude worse latency, an order of magnitude less bandwidth.
		TCPFallback: Transport{
			Name:           "ipoopa-tcp",
			Latency:        38 * units.Microsecond,
			Overhead:       10 * units.Microsecond,
			Bandwidth:      3.2 * units.GBps,
			EagerThreshold: 32 * units.KiB,
			SharesNIC:      true,
		},
	}

	// InfiniBandEDR is CTE-POWER's Mellanox EDR network.
	InfiniBandEDR = Fabric{
		Name: "InfiniBand EDR",
		Native: Transport{
			Name:           "edr-verbs",
			Latency:        1.0 * units.Microsecond,
			Overhead:       0.5 * units.Microsecond,
			Bandwidth:      11.8 * units.GBps,
			EagerThreshold: 64 * units.KiB,
		},
		TCPFallback: Transport{
			Name:           "ipoib-tcp",
			Latency:        30 * units.Microsecond,
			Overhead:       9 * units.Microsecond,
			Bandwidth:      1.8 * units.GBps,
			EagerThreshold: 32 * units.KiB,
			SharesNIC:      true,
		},
	}

	// FortyGigEthernet is the ThunderX mini-cluster's 40 GbE network.
	FortyGigEthernet = Fabric{
		Name: "40GbE TCP",
		Native: Transport{
			Name:           "tcp-40gbe",
			Latency:        25 * units.Microsecond,
			Overhead:       6 * units.Microsecond,
			Bandwidth:      4.4 * units.GBps,
			EagerThreshold: 32 * units.KiB,
			SharesNIC:      true,
		},
		TCPFallback: Transport{
			Name:           "tcp-40gbe-generic",
			Latency:        28 * units.Microsecond,
			Overhead:       7 * units.Microsecond,
			Bandwidth:      4.0 * units.GBps,
			EagerThreshold: 32 * units.KiB,
			SharesNIC:      true,
		},
	}
)

// SharedMemory builds the intra-node transport from a node's copy
// bandwidth and latency. Both bare-metal and HPC container runtimes use
// it; Docker's per-rank network namespaces forbid it (see DockerBridge).
func SharedMemory(rate units.Rate, latency units.Seconds) Transport {
	return Transport{
		Name:           "shm",
		Latency:        latency,
		Overhead:       0.2 * units.Microsecond,
		Bandwidth:      rate,
		EagerThreshold: 4 * units.KiB, // shm copies once either way; threshold barely matters
	}
}

// DockerBridge is the intra-node path between MPI ranks in separate
// Docker containers: loopback TCP through veth pairs, the docker0
// bridge, and iptables NAT. Every packet is touched by the kernel
// networking stack, which is what sinks Docker in the paper's Fig. 1 as
// rank count grows.
func DockerBridge() Transport {
	return Transport{
		Name:           "docker-bridge",
		Latency:        30 * units.Microsecond,
		Overhead:       8 * units.Microsecond,
		Bandwidth:      0.095 * units.GBps,
		EagerThreshold: 32 * units.KiB,
		PerPacketCPU:   10 * units.Microsecond,
		MTU:            1500 * units.Byte,
		// The docker0 bridge and its iptables chains run in softirq
		// context: one serialized per-node queue that every
		// container-to-container byte crosses, shared with the NIC.
		SharesNIC: true,
	}
}

// DockerNAT derives the inter-node path for Docker from the underlying
// fabric's native transport: same wire, plus NAT translation latency
// and per-packet masquerade cost on both endpoints.
func DockerNAT(native Transport) Transport {
	t := native
	t.Name = native.Name + "+nat"
	t.Latency += 20 * units.Microsecond
	t.Overhead += 5 * units.Microsecond
	t.Bandwidth = units.Rate(float64(native.Bandwidth) * 0.85)
	t.PerPacketCPU = 2 * units.Microsecond
	t.MTU = 1500 * units.Byte
	t.SharesNIC = true
	return t
}
