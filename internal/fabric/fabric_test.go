package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestPresetFabricsValid(t *testing.T) {
	for _, f := range []Fabric{GigabitEthernet, OmniPath100, InfiniBandEDR, FortyGigEthernet} {
		if err := f.Validate(); err != nil {
			t.Errorf("fabric %s invalid: %v", f.Name, err)
		}
	}
}

func TestFallbackSlowerThanNative(t *testing.T) {
	// On every fabric the self-contained TCP fallback must be at least
	// as slow as the native path, in both latency and bandwidth.
	for _, f := range []Fabric{GigabitEthernet, OmniPath100, InfiniBandEDR, FortyGigEthernet} {
		if f.TCPFallback.Latency < f.Native.Latency {
			t.Errorf("%s: fallback latency %v < native %v", f.Name, f.TCPFallback.Latency, f.Native.Latency)
		}
		if f.TCPFallback.Bandwidth > f.Native.Bandwidth {
			t.Errorf("%s: fallback bandwidth %v > native %v", f.Name, f.TCPFallback.Bandwidth, f.Native.Bandwidth)
		}
	}
}

func TestFastFabricsBeatEthernet(t *testing.T) {
	// OPA and EDR natives must dominate both Ethernet natives.
	for _, fast := range []Transport{OmniPath100.Native, InfiniBandEDR.Native} {
		for _, slow := range []Transport{GigabitEthernet.Native, FortyGigEthernet.Native} {
			if fast.Latency >= slow.Latency {
				t.Errorf("%s latency %v not below %s %v", fast.Name, fast.Latency, slow.Name, slow.Latency)
			}
			if fast.Bandwidth <= slow.Bandwidth {
				t.Errorf("%s bandwidth %v not above %s %v", fast.Name, fast.Bandwidth, slow.Name, slow.Bandwidth)
			}
		}
	}
}

func TestEagerThreshold(t *testing.T) {
	tr := GigabitEthernet.Native
	if !tr.Eager(1 * units.KiB) {
		t.Error("1 KiB should be eager")
	}
	if !tr.Eager(tr.EagerThreshold) {
		t.Error("threshold itself should be eager")
	}
	if tr.Eager(tr.EagerThreshold + 1) {
		t.Error("threshold+1 should be rendezvous")
	}
}

func TestCPUCostPerPacket(t *testing.T) {
	tr := Transport{
		Name: "bridge", Bandwidth: 1 * units.GBps,
		Overhead: 5 * units.Microsecond, PerPacketCPU: 10 * units.Microsecond,
		MTU: 1500 * units.Byte,
	}
	// 1500 bytes: 1 packet; 1501: 2 packets; zero-byte: still 1 packet.
	if got := tr.CPUCost(1500); got != 15*units.Microsecond {
		t.Errorf("1500B cpu = %v", got)
	}
	if got := tr.CPUCost(1501); got != 25*units.Microsecond {
		t.Errorf("1501B cpu = %v", got)
	}
	if got := tr.CPUCost(0); got != 15*units.Microsecond {
		t.Errorf("0B cpu = %v", got)
	}
	// No per-packet cost configured: just the overhead.
	plain := Transport{Name: "p", Bandwidth: 1, Overhead: 7 * units.Microsecond}
	if got := plain.CPUCost(1 << 20); got != 7*units.Microsecond {
		t.Errorf("plain cpu = %v", got)
	}
}

func TestDockerPathsWorseThanHost(t *testing.T) {
	shm := SharedMemory(8*units.GBps, 0.5*units.Microsecond)
	bridge := DockerBridge()
	if bridge.Latency <= shm.Latency {
		t.Error("bridge latency should exceed shared memory")
	}
	if bridge.Bandwidth >= shm.Bandwidth {
		t.Error("bridge bandwidth should be below shared memory")
	}
	if bridge.PerPacketCPU <= 0 {
		t.Error("bridge must pay per-packet software cost")
	}
	nat := DockerNAT(GigabitEthernet.Native)
	if nat.Latency <= GigabitEthernet.Native.Latency {
		t.Error("NAT latency should exceed native")
	}
	if nat.Bandwidth >= GigabitEthernet.Native.Bandwidth {
		t.Error("NAT bandwidth should be below native")
	}
	if nat.Name == GigabitEthernet.Native.Name {
		t.Error("NAT path should be renamed")
	}
}

func TestValidateCatchesBadTransports(t *testing.T) {
	bad := []Transport{
		{},
		{Name: "x"},
		{Name: "x", Bandwidth: 1, Latency: -1},
		{Name: "x", Bandwidth: 1, PerPacketCPU: 1 * units.Microsecond}, // no MTU
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad transport %d not caught", i)
		}
	}
}

func TestTransferMonotoneInSize(t *testing.T) {
	tr := OmniPath100.Native
	f := func(a, b uint32) bool {
		x, y := units.ByteSize(a), units.ByteSize(b)
		if x > y {
			x, y = y, x
		}
		return tr.WireTime(x) <= tr.WireTime(y) && tr.CPUCost(x) <= tr.CPUCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
