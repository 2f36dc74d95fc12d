package topology

import (
	"testing"

	"repro/internal/units"
)

func TestPresetNodesValid(t *testing.T) {
	for _, n := range []NodeSpec{LenoxNode, MareNostrum4Node, CTEPowerNode, ThunderXNode} {
		if err := n.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", n.CPU.Name, err)
		}
	}
}

func TestCoresPerNodeMatchPaper(t *testing.T) {
	cases := []struct {
		node NodeSpec
		want int
	}{
		{LenoxNode, 28},
		{MareNostrum4Node, 48},
		{CTEPowerNode, 40},
		{ThunderXNode, 96},
	}
	for _, c := range cases {
		if got := c.node.CoresPerNode(); got != c.want {
			t.Errorf("%s: %d cores/node, paper says %d", c.node.CPU.Name, got, c.want)
		}
	}
}

func TestISAs(t *testing.T) {
	if LenoxNode.CPU.ISA != AMD64 || MareNostrum4Node.CPU.ISA != AMD64 {
		t.Error("Intel nodes must be amd64")
	}
	if CTEPowerNode.CPU.ISA != PPC64LE {
		t.Error("Power9 must be ppc64le")
	}
	if ThunderXNode.CPU.ISA != ARM64 {
		t.Error("ThunderX must be arm64")
	}
}

func TestSocketsSpanned(t *testing.T) {
	n := LenoxNode // 2 × 14 cores
	cases := []struct{ threads, want int }{
		{0, 1}, {1, 1}, {14, 1}, {15, 2}, {28, 2}, {99, 2},
	}
	for _, c := range cases {
		if got := n.SocketsSpanned(c.threads); got != c.want {
			t.Errorf("SocketsSpanned(%d) = %d, want %d", c.threads, got, c.want)
		}
	}
}

func TestAggregateRates(t *testing.T) {
	n := MareNostrum4Node
	if got := n.TotalMemBandwidth(); got != 2*105*units.GBps {
		t.Errorf("total mem bw = %v", got)
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	good := LenoxNode
	bad := []func(*NodeSpec){
		func(n *NodeSpec) { n.CPU.Cores = 0 },
		func(n *NodeSpec) { n.Sockets = 0 },
		func(n *NodeSpec) { n.CPU.EffectiveCoreRate = 0 },
		func(n *NodeSpec) { n.CPU.MemBandwidth = 0 },
		func(n *NodeSpec) { n.CPU.PerCoreMemBW = 0 },
		func(n *NodeSpec) { n.NUMARemotePenalty = 0 },
		func(n *NodeSpec) { n.NUMARemotePenalty = 1.5 },
	}
	for i, mutate := range bad {
		n := good
		mutate(&n)
		if err := n.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestPerCoreBelowSocketBandwidth(t *testing.T) {
	// Sanity of the calibration: one core must not be able to saturate
	// its socket.
	for _, cpu := range []CPUModel{HaswellE52697v3, SkylakePlatinum8160, Power9_8335GTG, ThunderXCN8890} {
		if cpu.PerCoreMemBW >= cpu.MemBandwidth {
			t.Errorf("%s: per-core bw %v >= socket bw %v", cpu.Name, cpu.PerCoreMemBW, cpu.MemBandwidth)
		}
	}
}
