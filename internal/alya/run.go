package alya

import (
	"fmt"

	"repro/internal/container"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/navier"
	"repro/internal/omp"
	"repro/internal/sched"
	"repro/internal/solid"
	"repro/internal/units"
)

func workUnits(f float64) units.Flops    { return units.Flops(f) }
func byteUnits(b float64) units.ByteSize { return units.ByteSize(b) }

// decomposeFor partitions a code's mesh over its ranks, aligning the z
// split with the nodes the rank block [firstRank, firstRank+ranks)
// spans under the job's block placement, so node boundaries are clean
// mesh cross-sections (what a topology-aware partitioner produces).
// When the group does not tile whole nodes the alignment degrades
// gracefully to the unaligned decomposition.
func decomposeFor(m mesh.Mesh, ranks int, job *sched.Job, firstRank int) (mesh.Grid, error) {
	align := 1
	if job.Placement == sched.PlaceBlock &&
		firstRank%job.RanksPerNode == 0 && ranks%job.RanksPerNode == 0 {
		align = ranks / job.RanksPerNode
	}
	for ; align >= 1; align-- {
		if ranks%align != 0 {
			continue
		}
		g, err := mesh.DecomposeAligned(m, ranks, align)
		if err == nil {
			return g, nil
		}
	}
	return mesh.Decompose(m, ranks)
}

// Mode selects between the real-numerics and workload-model executions.
type Mode int

// Execution modes.
const (
	// ModeModel charges compute analytically and exchanges size-only
	// messages costed like correctly sized payloads. Scales to the
	// paper's 12,288-core runs.
	ModeModel Mode = iota
	// ModeReal runs the actual solvers with real data.
	ModeReal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeModel:
		return "model"
	case ModeReal:
		return "real"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Spec fully describes one execution cell.
type Spec struct {
	// Job is the validated placement (cluster, nodes, ranks, threads).
	Job *sched.Job
	// Profile is the container runtime's execution profile.
	Profile container.ExecProfile
	// Case is the Alya configuration.
	Case Case
	// Mode selects real numerics or the workload model.
	Mode Mode
	// Allreduce picks the collective algorithm (default recursive
	// doubling, which Fig. 1 and Fig. 2 use; Fig. 3's FSI runs use
	// hierarchical, paying the fabric's latency once per node instead
	// of once per rank).
	Allreduce mpi.AllreduceAlgo
	// Tap is the passive telemetry tap forwarded into the MPI layer
	// (see mpi.Config); it does not affect the execution's outcome.
	Tap mpi.Tap
}

// Result reports one execution cell.
type Result struct {
	// Case, Runtime, FabricPath identify the cell.
	Case       string `json:"Case"`
	Runtime    string `json:"Runtime"`
	FabricPath string `json:"FabricPath"`
	// Nodes, Ranks, Threads echo the configuration.
	Nodes   int `json:"Nodes"`
	Ranks   int `json:"Ranks"`
	Threads int `json:"Threads"`
	// TimePerStep is the steady-state time per physical step.
	TimePerStep units.Seconds `json:"TimePerStep"`
	// Elapsed is TimePerStep × Case.Steps — the figure's y axis.
	Elapsed units.Seconds `json:"Elapsed"`
	// LaunchTime covers srun fan-out, container start skew, and the
	// initial barrier.
	LaunchTime units.Seconds `json:"LaunchTime"`
	// MPI holds the transport statistics.
	MPI mpi.Stats `json:"MPI"`
	// CommFraction is max rank MPI time / total solver time.
	CommFraction float64 `json:"CommFraction"`
	// AvgCGIters is the mean pressure-CG iteration count per step.
	AvgCGIters float64 `json:"AvgCGIters"`
	// MaxDivergence is the final max |∇·u| (ModeReal only).
	MaxDivergence float64 `json:"MaxDivergence"`
}

// Run executes one cell.
func Run(spec Spec) (Result, error) {
	if spec.Job == nil {
		return Result{}, fmt.Errorf("alya: no job")
	}
	if err := spec.Case.Validate(); err != nil {
		return Result{}, err
	}
	job := spec.Job
	intra := spec.Profile.IntraNode
	inter := spec.Profile.InterNode
	if err := intra.Validate(); err != nil {
		return Result{}, err
	}
	if err := inter.Validate(); err != nil {
		return Result{}, err
	}

	model := omp.DefaultModel(job.Cluster.Node)
	model.RanksPerNode = job.RanksPerNode

	launch := job.LaunchLatency()
	perRank := spec.Profile.LaunchPerRank
	cfg := mpi.Config{
		Ranks:  job.Ranks,
		Nodes:  job.Nodes,
		NodeOf: job.NodeOf,
		Path: func(src, dst int) *fabric.Transport {
			if job.SameNode(src, dst) {
				return &intra
			}
			return &inter
		},
		ComputeDilation: spec.Profile.ComputeDilation,
		Allreduce:       spec.Allreduce,
		StartupSkew: func(rank int) units.Seconds {
			local := rank % job.RanksPerNode
			return launch + perRank*units.Seconds(local+1)
		},
		Tap: spec.Tap,
	}

	run := runState{spec: spec, model: model}
	var body func(r *mpi.Rank)
	switch spec.Case.Kind {
	case CFD:
		grid, err := decomposeFor(spec.Case.FluidMesh, job.Ranks, job, 0)
		if err != nil {
			return Result{}, err
		}
		run.fluidGrid = grid
		body = run.cfdBody
	case FSI:
		fluidRanks := int(float64(job.Ranks) * spec.Case.FluidFraction)
		if fluidRanks < 1 {
			fluidRanks = 1
		}
		if fluidRanks >= job.Ranks {
			fluidRanks = job.Ranks - 1
		}
		fg, err := decomposeFor(spec.Case.FluidMesh, fluidRanks, job, 0)
		if err != nil {
			return Result{}, err
		}
		sg, err := decomposeFor(spec.Case.SolidMesh, job.Ranks-fluidRanks, job, fluidRanks)
		if err != nil {
			return Result{}, err
		}
		run.fluidGrid, run.solidGrid = fg, sg
		run.fluidRanks = fluidRanks
		body = run.fsiBody
	default:
		return Result{}, fmt.Errorf("alya: unknown case kind %v", spec.Case.Kind)
	}

	st, err := mpi.Run(cfg, body)
	if err != nil {
		return Result{}, err
	}
	if run.err != nil {
		return Result{}, run.err
	}

	perStep := run.solveTime / units.Seconds(spec.Case.SimSteps)
	res := Result{
		Case:        spec.Case.Name,
		Runtime:     spec.Profile.RuntimeName,
		FabricPath:  spec.Profile.FabricPath,
		Nodes:       job.Nodes,
		Ranks:       job.Ranks,
		Threads:     job.ThreadsPerRank,
		TimePerStep: perStep,
		Elapsed:     perStep * units.Seconds(spec.Case.Steps),
		LaunchTime:  run.solveStart,
		MPI:         st,
		AvgCGIters:  run.cgIters / float64(spec.Case.SimSteps),
	}
	if run.solveTime > 0 {
		res.CommFraction = float64(st.MaxCommTime-run.startupComm) / float64(run.solveTime)
		if res.CommFraction < 0 {
			res.CommFraction = 0
		}
	}
	res.MaxDivergence = run.maxDiv
	return res, nil
}

// runState carries cross-rank result channels. All fields written by
// rank bodies are written under the vtime kernel's single-running-proc
// invariant — the direct handoff chain orders every write before the
// next rank observes it — so no locking is needed; rank 0 owns the
// scalar outcomes.
type runState struct {
	spec      Spec
	model     omp.Model
	fluidGrid mesh.Grid
	solidGrid mesh.Grid
	// fluidRanks is the world size of the fluid code (FSI).
	fluidRanks int

	solveStart  units.Seconds
	solveTime   units.Seconds
	startupComm units.Seconds
	cgIters     float64
	maxDiv      float64
	err         error
}

// fail records the first error; subsequent ranks keep the original.
func (rs *runState) fail(err error) {
	if rs.err == nil {
		rs.err = err
	}
}

// A rank body's frame lies under every collective the rank ever parks
// in, and a few hundred bytes there decide whether each rank fits Go's
// 4 KB stack or doubles to 8 KB (TestRankStackClass). So the bodies
// hold pointers and scalars; whatever copies a mesh.Partition or solver
// parameters is a //go:noinline helper that has returned by then.

// cfdBody is the per-rank program of the CFD case.
func (rs *runState) cfdBody(r *mpi.Rank) {
	rc := rs.newRankComm(r.World(), &rs.fluidGrid)

	r.Barrier()
	start := r.Now()
	if r.ID() == 0 {
		rs.solveStart = start
		rs.startupComm = r.CommTime()
	}

	switch rs.spec.Mode {
	case ModeReal:
		solver := rs.fluidSolver(rc)
		if solver == nil {
			return
		}
		for step := 0; step < rs.spec.Case.SimSteps; step++ {
			if !rs.fluidStep(r, solver) {
				return
			}
		}
	default:
		for step := 0; step < rs.spec.Case.SimSteps; step++ {
			rs.modelCFDStep(rc)
		}
		if r.ID() == 0 {
			rs.cgIters = float64(rs.spec.Case.ModelCGIters * rs.spec.Case.SimSteps)
		}
	}

	r.Barrier()
	if r.ID() == 0 {
		rs.solveTime = r.Now() - start
	}
}

// newRankComm builds the adapter for comm's rank of grid.
//
//go:noinline
func (rs *runState) newRankComm(comm *mpi.Comm, grid *mesh.Grid) *rankComm {
	part := grid.Part(comm.Rank())
	nbrs := part.Neighbors()
	return &rankComm{
		comm: comm, part: part, cells: float64(part.Cells()),
		model: rs.model, threads: rs.spec.Job.ThreadsPerRank, nbrs: nbrs,
		sendBufs: make([][]float64, len(nbrs)),
		recvBufs: make([][]float64, len(nbrs)),
		reqs:     make([]*mpi.Request, 0, 2*len(nbrs)),
	}
}

// fluidSolver builds the ModeReal flow solver; nil: failed, recorded.
//
//go:noinline
func (rs *runState) fluidSolver(rc *rankComm) *navier.Solver {
	solver, err := navier.NewSolver(rc.part, rs.spec.Case.FluidParams, rc)
	if err != nil {
		rs.fail(err)
	}
	return solver
}

// fluidStep advances the ModeReal flow solver one step; false: failed.
func (rs *runState) fluidStep(r *mpi.Rank, solver *navier.Solver) bool {
	stats, err := solver.Step()
	if err != nil {
		rs.fail(err)
		return false
	}
	if r.ID() == 0 {
		rs.cgIters += float64(stats.CGIterations)
		rs.maxDiv = stats.MaxDivergence
	}
	return true
}

// modelCFDStep mirrors navier.(*Solver).Step's compute/communication
// structure without touching field data.
func (rs *runState) modelCFDStep(rc *rankComm) {
	cells := rc.cells
	// Tentative velocity: assemble, then exchange the three components.
	rc.Charge(cells*navier.AssemblyFlopsPerCell, cells*navier.AssemblyBytesPerCell)
	rc.ExchangeModel(3)
	// Pressure CG: per iteration one stencil apply (with its pressure
	// halo) and two global dot products.
	for it := 0; it < rs.spec.Case.ModelCGIters; it++ {
		rc.Charge(cells*navier.CGIterFlopsPerCell, cells*navier.CGIterBytesPerCell)
		rc.ExchangeModel(1)
		rc.AllSum(1)
		rc.AllSum(1)
	}
	// Projection, pressure halo, final velocity sync and diagnostics.
	rc.Charge(cells*navier.ProjectionFlopsPerCell, cells*navier.ProjectionBytesPerCell)
	rc.ExchangeModel(1)
	rc.ExchangeModel(3)
	rc.AllMax(1)
	rc.AllMax(1)
}

// fsiBody is the per-rank program of the coupled FSI case: world ranks
// [0, fluidRanks) run the fluid code, the rest run the solid code, and
// the two exchange interface data every coupling iteration — two code
// instances, exactly as the paper describes.
func (rs *runState) fsiBody(r *mpi.Rank) {
	isFluid := r.ID() < rs.fluidRanks
	lo, hi := 0, rs.fluidRanks
	if !isFluid {
		lo, hi = rs.fluidRanks, r.Size()
	}
	comm, err := r.NewComm(lo, hi)
	if err != nil {
		rs.fail(err)
		return
	}

	solidRanks := r.Size() - rs.fluidRanks
	// Pairing: fluid comm-rank f couples with solid comm-rank
	// f*solidRanks/fluidRanks; the reverse mapping on the solid side
	// enumerates its fluid partners deterministically.
	pairOfFluid := func(f int) int { return f * solidRanks / rs.fluidRanks }

	r.Barrier()
	start := r.Now()
	if r.ID() == 0 {
		rs.solveStart = start
		rs.startupComm = r.CommTime()
	}

	if isFluid {
		rs.fluidFSI(r, comm, pairOfFluid)
	} else {
		rs.solidFSI(r, comm, pairOfFluid)
	}
	if rs.err != nil {
		return
	}

	r.Barrier()
	if r.ID() == 0 {
		rs.solveTime = r.Now() - start
	}
}

// interfaceCells returns the coupling-payload size for a fluid rank:
// its wall-adjacent cell count (≥ 1 so every pair exchanges something,
// as Alya's coupling keeps all ranks in the communication schedule).
//
//go:noinline
func (rs *runState) interfaceCells(fluidRank int) int {
	return max(1, rs.fluidGrid.Part(fluidRank).WallCells())
}

// fluidFSI runs the fluid side: a CFD step plus coupling exchanges.
func (rs *runState) fluidFSI(r *mpi.Rank, comm *mpi.Comm, pairOfFluid func(int) int) {
	rc := rs.newRankComm(comm, &rs.fluidGrid)
	peer := rs.fluidRanks + pairOfFluid(comm.Rank()) // world rank of solid partner
	iface := rs.interfaceCells(comm.Rank())
	traction := make([]float64, iface)
	motion := make([]float64, iface)

	var solver *navier.Solver
	if rs.spec.Mode == ModeReal {
		if solver = rs.fluidSolver(rc); solver == nil {
			return
		}
	}

	for step := 0; step < rs.spec.Case.SimSteps; step++ {
		if rs.spec.Mode == ModeReal {
			if !rs.fluidStep(r, solver) {
				return
			}
		} else {
			rs.modelCFDStep(rc)
			if r.ID() == 0 {
				rs.cgIters += float64(rs.spec.Case.ModelCGIters)
			}
		}
		for ci := 0; ci < rs.spec.Case.CouplingIters; ci++ {
			if rs.spec.Mode == ModeReal {
				wp := solver.WallPressure()
				for i := range traction {
					traction[i] = wp
				}
			}
			r.Send(peer, tagCoupleTraction, traction)
			r.Recv(peer, tagCoupleMotion, motion)
			if rs.spec.Mode == ModeReal {
				solver.SetWallVelocity(motion[0] * 1e-3)
			}
		}
	}
}

// solidSolver builds the ModeReal wall solver; nil: failed, recorded.
//
//go:noinline
func (rs *runState) solidSolver(rc *rankComm) *solid.Solver {
	solver, err := solid.NewSolver(rc.part, rs.spec.Case.SolidParams, rc)
	if err != nil {
		rs.fail(err)
	}
	return solver
}

// solidFSI runs the structural side: wall substeps plus coupling.
func (rs *runState) solidFSI(r *mpi.Rank, comm *mpi.Comm, pairOfFluid func(int) int) {
	rc := rs.newRankComm(comm, &rs.solidGrid)

	// Enumerate the fluid comm-ranks paired to this solid comm-rank.
	var partners []int
	for f := 0; f < rs.fluidRanks; f++ {
		if pairOfFluid(f) == comm.Rank() {
			partners = append(partners, f)
		}
	}
	// Interface payload sizes follow the fluid partner's wall size.
	bufs := make([][]float64, len(partners))
	for i, f := range partners {
		bufs[i] = make([]float64, rs.interfaceCells(f))
	}

	var solver *solid.Solver
	if rs.spec.Mode == ModeReal {
		if solver = rs.solidSolver(rc); solver == nil {
			return
		}
	}

	cells := rc.cells
	for step := 0; step < rs.spec.Case.SimSteps; step++ {
		var meanVel float64
		for sub := 0; sub < rs.spec.Case.SolidSubsteps; sub++ {
			if rs.spec.Mode == ModeReal {
				stats, err := solver.Step()
				if err != nil {
					rs.fail(err)
					return
				}
				meanVel = stats.MeanRadialVelocity
			} else {
				rc.Charge(cells*solid.StepFlopsPerCell, cells*solid.StepBytesPerCell)
				rc.ExchangeModel(3)
				rc.AllSum(1)
				rc.AllSum(1)
				rc.AllMax(1)
			}
		}
		for ci := 0; ci < rs.spec.Case.CouplingIters; ci++ {
			var tractionSum float64
			for i, f := range partners {
				r.Recv(f, tagCoupleTraction, bufs[i])
				tractionSum += bufs[i][0]
			}
			if rs.spec.Mode == ModeReal && len(partners) > 0 {
				solver.SetTraction(tractionSum / float64(len(partners)))
			}
			for i, f := range partners {
				for j := range bufs[i] {
					bufs[i][j] = meanVel
				}
				r.Send(f, tagCoupleMotion, bufs[i])
			}
		}
	}
}
