package alya

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/vtime"
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

// TestExecModesEqual: ModeModel runs the solvers' own step programs,
// so when ModeReal's CG is held to exactly ModelCGIters iterations (a
// tolerance no residual reaches, and ModelCGIters as the cap) the two
// modes give the same execution, event for event, on every quick cell:
// every charge, halo, reduction and coupling message at the same
// virtual times, with the same sizes.
func TestExecModesEqual(t *testing.T) {
	for _, cl := range []*cluster.Cluster{cluster.Lenox(), cluster.CTEPower(), cluster.MareNostrum4()} {
		for _, cs := range []Case{QuickCFD(3), QuickFSI(2)} {
			cs.FluidParams.CGMaxIter, cs.FluidParams.CGTol = cs.ModelCGIters, 1e-300
			spec := Spec{Job: job(t, cl, 2, 8, 1), Profile: bareProfile(t, cl), Case: cs}
			var res [2]Result
			var logs [2]*vtime.Log
			for i, mode := range []Mode{ModeReal, ModeModel} {
				spec.Mode, spec.Log = mode, &vtime.Log{}
				r, err := Run(spec)
				if err != nil {
					t.Fatalf("%s %s %v: %v", cl.Name, cs.Name, mode, err)
				}
				res[i], logs[i] = r, spec.Log
			}
			name := cl.Name + " " + cs.Name
			real, model := logs[0], logs[1]
			if real.Len() == 0 || real.Len() != model.Len() {
				t.Errorf("%s: real logged %d events, model %d", name, real.Len(), model.Len())
			}
			for i := range min(real.Len(), model.Len()) {
				a, b := real.At(i), model.At(i)
				an, bn := real.Name(a.Name), model.Name(b.Name)
				a.Name, b.Name = 0, 0
				if a != b || an != bn {
					t.Errorf("%s: event %d: real %q %+v, model %q %+v", name, i, an, a, bn, b)
					break
				}
			}
			if res[0].TimePerStep != res[1].TimePerStep || res[0].AvgCGIters != res[1].AvgCGIters ||
				!reflect.DeepEqual(res[0].MPI, res[1].MPI) {
				t.Errorf("%s: real %v/step %v CG iters %+v, model %v/step %v CG iters %+v", name,
					res[0].TimePerStep, res[0].AvgCGIters, res[0].MPI, res[1].TimePerStep, res[1].AvgCGIters, res[1].MPI)
			}
		}
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

// TestFailedRankReturnsItsError: a rank that fails returns early and
// leaves its coupling partners blocked on it forever; Run reports the
// rank's error, not the kernel deadlock it caused.
func TestFailedRankReturnsItsError(t *testing.T) {
	cl := cluster.CTEPower()
	cs := QuickFSI(1)
	cs.SolidParams.Dt = 1e-3 // far above the wall solver's CFL bound
	_, err := Run(Spec{Job: job(t, cl, 2, 8, 1), Profile: bareProfile(t, cl), Case: cs, Mode: ModeReal})
	if err == nil || !strings.Contains(err.Error(), "solid: dt") {
		t.Fatalf("err = %v, want the wall solver's CFL error", err)
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

// raceBuild reports whether the test binary is race-instrumented.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestRankStackClass guards the per-rank goroutine stack of a ModeModel
// cell. Go grows a stack by doubling, and the rank bodies sit just under
// the 4 KB→8 KB step: one more by-value mesh.Partition or omp.Model in a
// rank body's frame (or in anything between the kernel's root frame and
// a parked rank's leaf) tips every rank over it and costs 4 KB × ranks —
// +15–20 % rss_peak_mb on the sim_cold and fleet_cold benchmark
// workloads (ISSUE 18). The cell is fig2-quick's largest: 640 ranks.
func TestRankStackClass(t *testing.T) {
	if raceBuild() {
		t.Skip("race instrumentation enlarges every frame; the guard is for production builds")
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

// TestCellAllocsPerMessage counts, rather than times, the allocation
// cost of a cell's communication: fig2-quick's 2-node CTE-POWER cell
// (80 ranks, one simulated step) must allocate fewer than one heap
// object per twenty delivered messages, set-up included. Recycled
// endpoints and per-Comm collective scratch make a message free; a
// closure or slice that a step program adds to the halo or allreduce
// path costs at least one object per call and fails this, where the
// two-rank pins in internal/mpi cannot see it.
func TestCellAllocsPerMessage(t *testing.T) {
	cl := cluster.CTEPower()
	cs := ArteryCFDCTEPower()
	cs.SimSteps = 1
	spec := Spec{Job: job(t, cl, 2, 80, 1), Profile: bareProfile(t, cl), Case: cs, Mode: ModeModel}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	objects := after.Mallocs - before.Mallocs
	perMsg := float64(objects) / float64(res.MPI.TotalMessages)
	t.Logf("%d heap objects over %d messages: %.4f per message", objects, res.MPI.TotalMessages, perMsg)
	if perMsg >= 0.05 {
		t.Errorf("%.4f heap objects per delivered message (%d over %d), want < 0.05", perMsg, objects, res.MPI.TotalMessages)
	}
}

// TestFSICellBytesPerRank counts the heap a ModeModel FSI cell allocates
// per rank: Fig. 3's smallest cell (4 MareNostrum4 nodes, 192 ranks, one
// simulated step, CG cut to 4 iterations) must stay under 8 KiB per
// rank, set-up included. Size-only halos and a size-only coupling keep
// a model rank's payload at zero bytes; a rank that allocates its
// interface traction and motion, or a solid rank its per-partner
// buffers, reads well over 100 KiB here.
func TestFSICellBytesPerRank(t *testing.T) {
	cl := cluster.MareNostrum4()
	cs := ArteryFSIMareNostrum4()
	cs.SimSteps, cs.ModelCGIters = 1, 4
	spec := Spec{Job: job(t, cl, 4, 192, 1), Profile: bareProfile(t, cl), Case: cs, Mode: ModeModel,
		Allreduce: mpi.AllreduceHierarchical}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perRank := float64(after.TotalAlloc-before.TotalAlloc) / float64(spec.Job.Ranks)
	t.Logf("%d B allocated over %d ranks: %.0f B per rank", after.TotalAlloc-before.TotalAlloc, spec.Job.Ranks, perRank)
	if perRank >= 8<<10 {
		t.Errorf("%.0f B allocated per rank, want < 8 KiB: a ModeModel rank allocates no halo or coupling payload",
			perRank)
	}
}

// TestSteadyStateAllocs pins a warm cell's heap: on CTE-POWER with
// 2 × 8 ranks, a 22-step quick cell allocates no more heap objects than
// a 12-step one, give or take a few, in either mode and either case.
// One object per step on a single rank adds ten and fails it, and so
// does a step-program interpreter that allocates per op. Each count is
// the least of three runs from a collected heap: a collection during a
// run refills the runtime's pools and adds a handful of objects.
func TestSteadyStateAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("its 24 cells take 25× longer race-instrumented; the pin is for production builds")
	}
	const slack = 4
	cl := cluster.CTEPower()
	mallocs := func(cs Case, mode Mode) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := Run(Spec{Job: job(t, cl, 2, 8, 1), Profile: bareProfile(t, cl), Case: cs, Mode: mode})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	for _, mode := range []Mode{ModeModel, ModeReal} {
		for _, quick := range []func(int) Case{QuickCFD, QuickFSI} {
			short, long := mallocs(quick(12), mode), mallocs(quick(22), mode)
			t.Logf("%v %s: %d heap objects in 12 steps, %d in 22", mode, quick(1).Name, short, long)
			if long > short+slack {
				t.Errorf("%v %s: %d heap objects in 22 steps against %d in 12, want at most %d more",
					mode, quick(1).Name, long, short, slack)
			}
		}
	}
}
