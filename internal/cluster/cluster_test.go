package cluster

import (
	"testing"

	"repro/internal/topology"
)

func TestPresetsValid(t *testing.T) {
	for _, c := range All() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestPaperSpecs(t *testing.T) {
	cases := []struct {
		name       string
		nodes      int
		cores      int
		isa        topology.ISA
		fabricName string
		admin      bool
	}{
		{"Lenox", 4, 28, topology.AMD64, "1GbE TCP", true},
		{"MareNostrum4", 3456, 48, topology.AMD64, "100Gb/s Omni-Path", false},
		{"CTE-POWER", 52, 40, topology.PPC64LE, "InfiniBand EDR", false},
		{"ThunderX", 4, 96, topology.ARM64, "40GbE TCP", false},
	}
	for _, c := range cases {
		cl, err := ByName(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cl.TotalNodes != c.nodes {
			t.Errorf("%s: %d nodes, paper says %d", c.name, cl.TotalNodes, c.nodes)
		}
		if cl.CoresPerNode() != c.cores {
			t.Errorf("%s: %d cores/node, paper says %d", c.name, cl.CoresPerNode(), c.cores)
		}
		if cl.ISA() != c.isa {
			t.Errorf("%s: ISA %s, want %s", c.name, cl.ISA(), c.isa)
		}
		if cl.Interconnect.Name != c.fabricName {
			t.Errorf("%s: fabric %q, want %q", c.name, cl.Interconnect.Name, c.fabricName)
		}
		if cl.AdminRights != c.admin {
			t.Errorf("%s: admin rights %v, want %v", c.name, cl.AdminRights, c.admin)
		}
	}
}

func TestMareNostrum4Scale(t *testing.T) {
	mn4 := MareNostrum4()
	// The paper's biggest run: 256 nodes = 12,288 cores.
	if got := 256 * mn4.CoresPerNode(); got != 12288 {
		t.Fatalf("256 nodes = %d cores, want 12288", got)
	}
	if mn4.TotalNodes < 256 {
		t.Fatalf("machine smaller than the study's largest run")
	}
}

func TestAllocate(t *testing.T) {
	lenox := Lenox()
	nodes, err := lenox.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 || nodes[0] != 0 || nodes[3] != 3 {
		t.Fatalf("allocation %v", nodes)
	}
	if _, err := lenox.Allocate(5); err == nil {
		t.Fatal("allocating 5 of 4 nodes should fail")
	}
	if _, err := lenox.Allocate(0); err == nil {
		t.Fatal("allocating 0 nodes should fail")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("Summit"); err == nil {
		t.Fatal("unknown machine should error")
	}
}

func TestHostABIsDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, c := range All() {
		if prev, dup := seen[c.HostABI]; dup {
			t.Errorf("clusters %s and %s share host ABI %q", prev, c.Name, c.HostABI)
		}
		seen[c.HostABI] = c.Name
	}
}

func TestSharedMemTransport(t *testing.T) {
	for _, c := range All() {
		tr := c.SharedMemTransport()
		if err := tr.Validate(); err != nil {
			t.Errorf("%s shm: %v", c.Name, err)
		}
		if tr.Latency >= c.Interconnect.Native.Latency && c.Name != "Lenox" && c.Name != "ThunderX" {
			// On the fast-fabric machines shm must beat the network.
			t.Errorf("%s: shm latency %v not below fabric %v", c.Name, tr.Latency, c.Interconnect.Native.Latency)
		}
	}
}
