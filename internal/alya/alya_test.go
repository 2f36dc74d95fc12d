package alya

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/units"
)

func bareProfile(t *testing.T, cl *cluster.Cluster) container.ExecProfile {
	t.Helper()
	p, err := container.BareMetal{}.ExecProfile(cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func job(t *testing.T, cl *cluster.Cluster, nodes, ranks, threads int) *sched.Job {
	t.Helper()
	j, err := sched.Plan(cl, nodes, ranks, threads, sched.PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestCaseValidation(t *testing.T) {
	good := QuickCFD(3)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SimSteps = 5 // > Steps
	if bad.Validate() == nil {
		t.Error("SimSteps > Steps accepted")
	}
	bad = good
	bad.ModelCGIters = 0
	if bad.Validate() == nil {
		t.Error("zero CG iters accepted")
	}
	fsi := QuickFSI(2)
	if err := fsi.Validate(); err != nil {
		t.Fatal(err)
	}
	badFSI := fsi
	badFSI.FluidFraction = 1.5
	if badFSI.Validate() == nil {
		t.Error("fluid fraction > 1 accepted")
	}
}

func TestRunCFDModel(t *testing.T) {
	cl := cluster.Lenox()
	res, err := Run(Spec{
		Job:     job(t, cl, 2, 8, 1),
		Profile: bareProfile(t, cl),
		Case:    QuickCFD(3),
		Mode:    ModeModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimePerStep <= 0 {
		t.Fatalf("time/step %v", res.TimePerStep)
	}
	if res.Elapsed != res.TimePerStep*3 {
		t.Fatalf("elapsed %v != 3 × %v", res.Elapsed, res.TimePerStep)
	}
	if res.MPI.TotalMessages == 0 {
		t.Fatal("no MPI traffic")
	}
	if res.Runtime != "Bare-metal" {
		t.Fatalf("runtime %q", res.Runtime)
	}
}

func TestRunCFDReal(t *testing.T) {
	cl := cluster.Lenox()
	res, err := Run(Spec{
		Job:     job(t, cl, 2, 8, 1),
		Profile: bareProfile(t, cl),
		Case:    QuickCFD(3),
		Mode:    ModeReal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgCGIters <= 1 {
		t.Fatalf("avg CG iters %v", res.AvgCGIters)
	}
	if math.IsNaN(res.MaxDivergence) || res.MaxDivergence <= 0 {
		t.Fatalf("divergence diagnostic %v", res.MaxDivergence)
	}
}

func TestRealMatchesSequentialSolution(t *testing.T) {
	// The distributed real-mode solver must produce the same physics
	// regardless of rank count: compare the global max divergence and
	// CG iteration counts across 1, 2, and 8 ranks.
	cl := cluster.Lenox()
	run := func(ranks, nodes int) Result {
		res, err := Run(Spec{
			Job:     job(t, cl, nodes, ranks, 1),
			Profile: bareProfile(t, cl),
			Case:    QuickCFD(2),
			Mode:    ModeReal,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1, 1)
	r2 := run(2, 1)
	r8 := run(8, 2)
	for _, r := range []Result{r2, r8} {
		if math.Abs(r.MaxDivergence-r1.MaxDivergence) > 1e-6*math.Abs(r1.MaxDivergence) {
			t.Fatalf("divergence differs across rank counts: %v vs %v (ranks=%d)",
				r.MaxDivergence, r1.MaxDivergence, r.Ranks)
		}
		if math.Abs(r.AvgCGIters-r1.AvgCGIters) > 2 {
			t.Fatalf("CG iterations drifted: %v vs %v", r.AvgCGIters, r1.AvgCGIters)
		}
	}
}

func TestExecModesAgree(t *testing.T) {
	// Model and real modes must charge comparable virtual time for the
	// same configuration (same compute constants, same message sizes);
	// iteration counts differ (fixed vs converged), so compare
	// per-CG-iteration step cost within a tolerance.
	cl := cluster.Lenox()
	cs := QuickCFD(3)
	spec := Spec{
		Job:     job(t, cl, 2, 8, 1),
		Profile: bareProfile(t, cl),
		Case:    cs,
	}
	spec.Mode = ModeModel
	model, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Mode = ModeReal
	real, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	perIterModel := float64(model.TimePerStep) / float64(cs.ModelCGIters)
	perIterReal := float64(real.TimePerStep) / real.AvgCGIters
	ratio := perIterModel / perIterReal
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("modes disagree: model %.3g s/iter vs real %.3g s/iter (ratio %.2f)",
			perIterModel, perIterReal, ratio)
	}
}

func TestRunFSIModelAndReal(t *testing.T) {
	cl := cluster.CTEPower()
	for _, mode := range []Mode{ModeModel, ModeReal} {
		res, err := Run(Spec{
			Job:     job(t, cl, 2, 8, 1),
			Profile: bareProfile(t, cl),
			Case:    QuickFSI(2),
			Mode:    mode,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.TimePerStep <= 0 {
			t.Fatalf("%v: time/step %v", mode, res.TimePerStep)
		}
		if res.MPI.TotalMessages == 0 {
			t.Fatalf("%v: no traffic in a coupled run", mode)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cl := cluster.MareNostrum4()
	spec := Spec{
		Job:       job(t, cl, 2, 16, 3),
		Profile:   bareProfile(t, cl),
		Case:      QuickCFD(2),
		Mode:      ModeModel,
		Allreduce: mpi.AllreduceHierarchical,
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimePerStep != b.TimePerStep || a.MPI.End != b.MPI.End {
		t.Fatalf("nondeterministic: %v vs %v", a.TimePerStep, b.TimePerStep)
	}
}

func TestThreadsReduceRanksReduceTime(t *testing.T) {
	// More resources (2 nodes vs 1) must reduce model-mode time for a
	// compute-heavy case.
	cl := cluster.MareNostrum4()
	cs := ArteryCFDCTEPower() // big mesh, model mode only
	cs.FluidMesh = mustMesh(128, 128, 96, 1e-4)
	cs.Steps, cs.SimSteps = 2, 1
	one, err := Run(Spec{Job: job(t, cl, 1, 48, 1), Profile: bareProfile(t, cl), Case: cs})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Spec{Job: job(t, cl, 4, 192, 1), Profile: bareProfile(t, cl), Case: cs})
	if err != nil {
		t.Fatal(err)
	}
	if four.TimePerStep >= one.TimePerStep {
		t.Fatalf("4 nodes (%v) not faster than 1 (%v)", four.TimePerStep, one.TimePerStep)
	}
	speedup := float64(one.TimePerStep) / float64(four.TimePerStep)
	if speedup < 2 {
		t.Fatalf("4-node speedup only %.2f", speedup)
	}
}

func TestContainerStartupSkewCharged(t *testing.T) {
	cl := cluster.Lenox()
	slow := bareProfile(t, cl)
	slow.RuntimeName = "slow-start"
	slow.LaunchPerRank = 500 * units.Millisecond
	fast := bareProfile(t, cl)

	cs := QuickCFD(2)
	a, err := Run(Spec{Job: job(t, cl, 2, 8, 1), Profile: slow, Case: cs})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Spec{Job: job(t, cl, 2, 8, 1), Profile: fast, Case: cs})
	if err != nil {
		t.Fatal(err)
	}
	if a.LaunchTime <= b.LaunchTime+units.Seconds(0.5) {
		t.Fatalf("startup skew not visible: %v vs %v", a.LaunchTime, b.LaunchTime)
	}
	// Launch cost must not leak into per-step time.
	rel := math.Abs(float64(a.TimePerStep-b.TimePerStep)) / float64(b.TimePerStep)
	if rel > 0.01 {
		t.Fatalf("launch leaked into step time: %v vs %v", a.TimePerStep, b.TimePerStep)
	}
}

func TestComputeDilationSlowsSteps(t *testing.T) {
	cl := cluster.Lenox()
	dilated := bareProfile(t, cl)
	dilated.ComputeDilation = 1.5
	cs := QuickCFD(2)
	base, err := Run(Spec{Job: job(t, cl, 1, 4, 1), Profile: bareProfile(t, cl), Case: cs})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Spec{Job: job(t, cl, 1, 4, 1), Profile: dilated, Case: cs})
	if err != nil {
		t.Fatal(err)
	}
	if slow.TimePerStep <= base.TimePerStep {
		t.Fatalf("dilation had no effect: %v vs %v", slow.TimePerStep, base.TimePerStep)
	}
}

func TestSpecValidation(t *testing.T) {
	cl := cluster.Lenox()
	if _, err := Run(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	bad := QuickCFD(2)
	bad.SimSteps = 0
	if _, err := Run(Spec{Job: job(t, cl, 1, 4, 1), Profile: bareProfile(t, cl), Case: bad}); err == nil {
		t.Error("invalid case accepted")
	}
}

// TestRankStackClass guards the per-rank goroutine stack of a ModeModel
// cell. Go grows a stack by doubling, and the rank bodies sit just under
// the 4 KB→8 KB step: one more by-value mesh.Partition or omp.Model in a
// rank body's frame (or in anything between the kernel's root frame and
// a parked rank's leaf) tips every rank over it and costs 4 KB × ranks —
// +15–20 % rss_peak_mb on the sim_cold and fleet_cold benchmark
// workloads (ISSUE 18). The cell is fig2-quick's largest: 640 ranks.
func TestRankStackClass(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("race instrumentation enlarges every frame; the guard is for production builds")
			}
		}
	}
	cl := cluster.CTEPower()
	cs := ArteryCFDCTEPower()
	cs.SimSteps = 1
	spec := Spec{Job: job(t, cl, 16, 640, 1), Profile: bareProfile(t, cl), Case: cs, Mode: ModeModel}

	stop, sampled := make(chan struct{}), make(chan uint64)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.StackInuse)
			}
		}
	}()
	_, err := Run(spec)
	close(stop)
	peak := <-sampled
	if err != nil {
		t.Fatal(err)
	}
	perRank := float64(peak) / float64(spec.Job.Ranks)
	t.Logf("peak StackInuse %d B over %d ranks: %.0f B/rank", peak, spec.Job.Ranks, perRank)
	if perRank >= 6<<10 {
		t.Errorf("rank stacks average %.0f B (peak StackInuse %d B / %d ranks), want < 6 KB: "+
			"the rank bodies crossed Go's 4 KB→8 KB stack-growth cliff — slim the frames in internal/alya/run.go "+
			"(pass partitions, omp models and solver params by pointer or build them in non-inlined helpers; see ISSUE 18)",
			perRank, peak, spec.Job.Ranks)
	}
}
