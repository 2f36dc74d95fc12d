package omp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/units"
)

func testRegion() Region {
	return Region{Flops: 100 * units.MFlop, MemBytes: 100 * units.MiB}
}

func TestRegionTimePositive(t *testing.T) {
	m := DefaultModel(topology.LenoxNode)
	for threads := 1; threads <= 28; threads++ {
		if rt := m.RegionTime(testRegion(), threads); rt <= 0 || math.IsInf(float64(rt), 0) {
			t.Fatalf("threads=%d: region time %v", threads, rt)
		}
	}
}

func TestMoreThreadsHelpUntilBandwidth(t *testing.T) {
	m := DefaultModel(topology.LenoxNode)
	reg := testRegion()
	t1 := m.RegionTime(reg, 1)
	t4 := m.RegionTime(reg, 4)
	t14 := m.RegionTime(reg, 14)
	if !(t1 > t4 && t4 > t14) {
		t.Fatalf("threading does not help: %v, %v, %v", t1, t4, t14)
	}
}

// TestEfficiencyDecreases: the parallel efficiency T(1)/(n·T(n)) never
// rises with the team width n.
func TestEfficiencyDecreases(t *testing.T) {
	m := DefaultModel(topology.MareNostrum4Node)
	reg := testRegion()
	t1 := m.RegionTime(reg, 1)
	prev := 1.1
	for _, threads := range []int{1, 2, 4, 8, 16, 24, 48} {
		e := float64(t1) / (float64(threads) * float64(m.RegionTime(reg, threads)))
		if e > prev+1e-9 {
			t.Fatalf("efficiency increased at %d threads: %v > %v", threads, e, prev)
		}
		if e <= 0 || e > 1.0001 {
			t.Fatalf("efficiency out of range at %d threads: %v", threads, e)
		}
		prev = e
	}
}

func TestRanksPerNodeShareBandwidth(t *testing.T) {
	// A rank sharing its node with 27 others gets far less bandwidth
	// than a rank owning the node.
	alone := DefaultModel(topology.LenoxNode)
	crowded := DefaultModel(topology.LenoxNode)
	crowded.RanksPerNode = 28
	reg := Region{MemBytes: 1 * units.GiB} // purely memory bound
	ta := alone.RegionTime(reg, 1)
	tc := crowded.RegionTime(reg, 1)
	if tc < 2*ta {
		t.Fatalf("bandwidth sharing too weak: alone %v, crowded %v", ta, tc)
	}
}

func TestNUMAPenaltyAppliesAcrossSockets(t *testing.T) {
	m := DefaultModel(topology.LenoxNode) // 14 cores/socket
	reg := Region{MemBytes: 1 * units.GiB}
	// 14 threads: one socket. 15: spans two and pays the NUMA penalty,
	// but gains the second socket's bandwidth; compare against the
	// ideal no-penalty scaling instead.
	t14 := m.RegionTime(reg, 14)
	t28 := m.RegionTime(reg, 28)
	idealT28 := t14 / 2
	if float64(t28) <= float64(idealT28)*1.05 {
		t.Fatalf("no NUMA penalty visible: t14=%v t28=%v", t14, t28)
	}
}

func TestThreadsClamped(t *testing.T) {
	m := DefaultModel(topology.LenoxNode)
	reg := testRegion()
	if m.RegionTime(reg, 0) != m.RegionTime(reg, 1) {
		t.Error("0 threads should clamp to 1")
	}
	if m.RegionTime(reg, 100) != m.RegionTime(reg, 28) {
		t.Error(">cores threads should clamp to node cores")
	}
}

func TestRegionTimeMonotoneInWork(t *testing.T) {
	m := DefaultModel(topology.CTEPowerNode)
	f := func(a, b uint32, threads uint8) bool {
		x, y := units.Flops(a), units.Flops(b)
		if x > y {
			x, y = y, x
		}
		th := int(threads)%40 + 1
		rx := m.RegionTime(Region{Flops: x}, th)
		ry := m.RegionTime(Region{Flops: y}, th)
		return rx <= ry
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
