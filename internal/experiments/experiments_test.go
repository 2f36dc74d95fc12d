package experiments

import (
	"strings"
	"testing"

	"repro/internal/alya"
	"repro/internal/appio"
	"repro/internal/container"
	"repro/internal/report"
)

// reducedLenox returns the Fig. 1 case with a shorter simulated solve;
// relative behaviour between runtimes is preserved (all per-iteration
// costs scale together).
func reducedLenox() alya.Case {
	c := alya.ArteryCFDLenox()
	c.SimSteps = 1
	c.ModelCGIters = 30
	return c
}

func reducedCTEPower() alya.Case {
	c := alya.ArteryCFDCTEPower()
	c.SimSteps = 1
	c.ModelCGIters = 30
	return c
}

func reducedFSI() alya.Case {
	c := alya.ArteryFSIMareNostrum4()
	c.ModelCGIters = 60
	return c
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 sweep skipped in -short")
	}
	res, err := Fig1(Options{Case: reducedLenox()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("%d series", len(res.Series))
	}
	bare, err := res.SeriesByLabel("Bare-metal")
	if err != nil {
		t.Fatal(err)
	}
	docker, err := res.SeriesByLabel("Docker")
	if err != nil {
		t.Fatal(err)
	}

	// Claim 1: the HPC runtimes track bare metal within a few percent
	// at every configuration.
	for _, name := range []string{"Singularity", "Shifter"} {
		s, err := res.SeriesByLabel(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Points {
			over := relDiff(s.Points[i].T, bare.Points[i].T)
			if over > 0.05 || over < -0.02 {
				t.Errorf("%s at %v: %.1f%% off bare metal", name, res.Grid.Axis[i].Label, over*100)
			}
		}
	}

	// Claim 2: Docker's overhead grows monotonically with MPI ranks
	// and is severe at 112×1.
	overheads := make([]float64, len(res.Grid.Axis))
	for i := range res.Grid.Axis {
		overheads[i] = relDiff(docker.Points[i].T, bare.Points[i].T)
	}
	if !monotone(overheads, 1, 0.02) {
		t.Errorf("docker overhead not increasing with ranks: %v", overheads)
	}
	if overheads[len(overheads)-1] < 0.8 {
		t.Errorf("docker at 112×1 only %.0f%% over bare metal, paper shows ≫2×",
			overheads[len(overheads)-1]*100)
	}
	if overheads[0] > 0.6 {
		t.Errorf("docker at 8×14 already %.0f%% over bare metal — degradation should come with rank count",
			overheads[0]*100)
	}

	// Claim 3: bare metal itself is roughly flat across the hybrid
	// sweep (the study's configurations are all reasonable).
	sum := summarize(seriesSeconds(bare))
	if sum.Max > 1.5*sum.Min {
		t.Errorf("bare-metal sweep swings too much: min %v max %v", sum.Min, sum.Max)
	}
}

func seriesSeconds(s *report.Series) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = float64(p.T)
	}
	return out
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 sweep skipped in -short")
	}
	res, err := Fig2(Options{Case: reducedCTEPower(), NodePoints: []int{2, 8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	bare, _ := res.SeriesByLabel("Bare-metal")
	sys, _ := res.SeriesByLabel("Singularity system-specific")
	self, _ := res.SeriesByLabel("Singularity self-contained")

	// Claim 1: the system-specific container equals bare metal.
	for i := range bare.Points {
		if d := relDiff(sys.Points[i].T, bare.Points[i].T); d > 0.03 || d < -0.01 {
			t.Errorf("system-specific at %d nodes %.1f%% off bare metal", bare.Points[i].X, d*100)
		}
	}
	// Claim 2: all three strong-scale (monotonically decreasing).
	for _, s := range []*report.Series{bare, sys, self} {
		if !monotone(seriesSeconds(s), -1, 0.02) {
			t.Errorf("%s not strong-scaling: %v", s.Label, seriesSeconds(s))
		}
	}
	// Claim 3: self-contained is slower everywhere and the gap widens
	// with node count (it cannot use the EDR fabric).
	gaps := make([]float64, len(bare.Points))
	for i := range bare.Points {
		gaps[i] = relDiff(self.Points[i].T, bare.Points[i].T)
		if gaps[i] <= 0 {
			t.Errorf("self-contained not slower at %d nodes", bare.Points[i].X)
		}
	}
	if !monotone(gaps, 1, 0.05) {
		t.Errorf("self-contained gap not widening: %v", gaps)
	}
	// Claim 4: the fabric paths are the ones the paper names.
	if res.Fabrics[0] != "edr-verbs" || res.Fabrics[1] != "edr-verbs" || res.Fabrics[2] != "ipoib-tcp" {
		t.Errorf("fabric paths %v", res.Fabrics)
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 sweep skipped in -short")
	}
	res, err := Fig3(Options{Case: reducedFSI(), NodePoints: []int{4, 8, 32}})
	if err != nil {
		t.Fatal(err)
	}
	bare, _ := res.SeriesByLabel("Bare-metal")
	sys, _ := res.SeriesByLabel("Singularity system-specific")
	self, _ := res.SeriesByLabel("Singularity self-contained")

	bareSp, sysSp, selfSp := bare.Speedup(), sys.Speedup(), self.Speedup()

	// Claim 1: system-specific scales like bare metal.
	for i := range bareSp {
		if d := (sysSp[i] - bareSp[i]) / bareSp[i]; d < -0.05 || d > 0.05 {
			t.Errorf("system-specific speedup %v differs from bare %v at %d nodes",
				sysSp[i], bareSp[i], res.Grid.Axis[i].X)
		}
	}
	// Claim 2: bare metal keeps scaling well to 32 nodes.
	if bareSp[len(bareSp)-1] < 6.5 {
		t.Errorf("bare-metal speedup at 32 nodes only %.2f (ideal 8)", bareSp[len(bareSp)-1])
	}
	// Claim 3: self-contained falls well behind by 32 nodes.
	if selfSp[len(selfSp)-1] > 0.75*bareSp[len(bareSp)-1] {
		t.Errorf("self-contained speedup %.2f too close to bare %.2f at 32 nodes",
			selfSp[len(selfSp)-1], bareSp[len(bareSp)-1])
	}
	// Claim 4: fabric paths.
	if res.Fabrics[2] != "ipoopa-tcp" {
		t.Errorf("self-contained path %q", res.Fabrics[2])
	}
}

func TestSolutionsShape(t *testing.T) {
	res, err := Solutions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	docker, _ := res.RowByRuntime("Docker")
	sing, _ := res.RowByRuntime("Singularity")
	shifter, _ := res.RowByRuntime("Shifter")
	if docker == nil || sing == nil || shifter == nil {
		t.Fatal("missing runtimes")
	}
	// Image sizes: Docker's layered store is the largest footprint;
	// Singularity's SIF beats Shifter's squashfs.
	if docker.ImageSize <= shifter.ImageSize {
		t.Errorf("docker image %v not above shifter %v", docker.ImageSize, shifter.ImageSize)
	}
	if sing.ImageSize >= shifter.ImageSize {
		t.Errorf("sif %v not below squashfs %v", sing.ImageSize, shifter.ImageSize)
	}
	// Registry traffic: Docker re-pulls per node.
	if docker.WireSize <= 3*sing.WireSize {
		t.Errorf("docker wire %v should be ≈4× singularity's %v", docker.WireSize, sing.WireSize)
	}
	// Deployment overhead at full allocation: Docker worst.
	last := res.Nodes[len(res.Nodes)-1]
	if docker.DeployByNodes[last] <= sing.DeployByNodes[last] {
		t.Errorf("docker deploy %v not above singularity %v at %d nodes",
			docker.DeployByNodes[last], sing.DeployByNodes[last], last)
	}
	// Docker deployment grows with nodes; Singularity's stays flat.
	if docker.DeployByNodes[res.Nodes[0]] >= docker.DeployByNodes[last] {
		t.Error("docker deployment does not grow with nodes")
	}
	growth := float64(sing.DeployByNodes[last]-sing.DeployByNodes[res.Nodes[0]]) /
		float64(sing.DeployByNodes[res.Nodes[0]])
	if growth > 0.05 {
		t.Errorf("singularity deployment grew %.0f%% with nodes", growth*100)
	}
}

func TestPortabilityMatrix(t *testing.T) {
	res, err := Portability(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 source clusters × 2 techniques × 4 targets.
	if len(res.Cells) != 32 {
		t.Fatalf("%d cells, want 32", len(res.Cells))
	}

	// Self-contained runs wherever the ISA matches, including foreign
	// hosts (MN4-built on Lenox), always via a TCP path.
	c, err := res.Find("MareNostrum4", container.SelfContained, "Lenox")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Runs {
		t.Errorf("self-contained amd64 image should run on Lenox: %s", c.Why)
	}
	// System-specific on a same-ISA foreign host fails on the ABI.
	c, err = res.Find("MareNostrum4", container.SystemSpecific, "Lenox")
	if err != nil {
		t.Fatal(err)
	}
	if c.Runs || !strings.Contains(c.Why, "ABI") {
		t.Errorf("system-specific on foreign host: runs=%v why=%q", c.Runs, c.Why)
	}
	// Cross-ISA always fails with the exec-format error.
	c, _ = res.Find("CTE-POWER", container.SelfContained, "MareNostrum4")
	if c.Runs || !strings.Contains(c.Why, "architecture") {
		t.Errorf("ppc64le on amd64: runs=%v why=%q", c.Runs, c.Why)
	}
	// On home clusters both techniques run; system-specific uses the
	// native fabric, self-contained pays a slowdown on fast fabrics.
	sys, _ := res.Find("CTE-POWER", container.SystemSpecific, "CTE-POWER")
	self, _ := res.Find("CTE-POWER", container.SelfContained, "CTE-POWER")
	if !sys.Runs || !self.Runs {
		t.Fatal("home-cluster runs failed")
	}
	if !strings.Contains(sys.Why, "edr-verbs") {
		t.Errorf("system-specific path: %q", sys.Why)
	}
	if !strings.Contains(self.Why, "ipoib") {
		t.Errorf("self-contained path: %q", self.Why)
	}
	if sys.SlowdownVsBare > 1.02 {
		t.Errorf("system-specific slowdown %v", sys.SlowdownVsBare)
	}
	if self.SlowdownVsBare < 1.2 {
		t.Errorf("self-contained slowdown only %vx on EDR", self.SlowdownVsBare)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	// Smoke-test every renderer against a tiny sweep.
	sol, err := Solutions(Options{NodePoints: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sol.Render(&sb)
	if !strings.Contains(sb.String(), "Docker") {
		t.Fatal("solutions render empty")
	}

	port, err := Portability(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	port.Render(&sb)
	if !strings.Contains(sb.String(), "exec format error") {
		t.Fatal("portability render missing failures")
	}
}

func TestIOStudyShape(t *testing.T) {
	res, err := IOStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, nodes := range []int{1, 2, 4} {
		bind, err := res.Find(appio.PathBindMount, nodes)
		if err != nil {
			t.Fatal(err)
		}
		overlay, err := res.Find(appio.PathOverlay, nodes)
		if err != nil {
			t.Fatal(err)
		}
		volume, err := res.Find(appio.PathVolume, nodes)
		if err != nil {
			t.Fatal(err)
		}
		// The bind path never stages out; both Docker paths do, and
		// their end-to-end cost is higher at every node count.
		if bind.Report.StageOutTime != 0 {
			t.Errorf("%d nodes: bind path stages out", nodes)
		}
		if overlay.Report.Total() <= bind.Report.Total() {
			t.Errorf("%d nodes: overlay total %v not above bind %v",
				nodes, overlay.Report.Total(), bind.Report.Total())
		}
		if volume.Report.Total() <= bind.Report.Total() {
			t.Errorf("%d nodes: volume total %v not above bind %v",
				nodes, volume.Report.Total(), bind.Report.Total())
		}
		// Overlay's in-run write is slower than the volume's.
		if overlay.Report.WriteTime <= volume.Report.WriteTime {
			t.Errorf("%d nodes: overlay write %v not above volume %v",
				nodes, overlay.Report.WriteTime, volume.Report.WriteTime)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "overlay") {
		t.Fatal("iostudy render incomplete")
	}
}
