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
	"repro/internal/vtime"
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
	for ; align > 1; align-- {
		if ranks%align != 0 {
			continue
		}
		if g, err := mesh.DecomposeAligned(m, ranks, align); err == nil {
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
	// messages costed like correctly sized payloads, halos and FSI
	// coupling alike, so a rank allocates no payload. Scales to the
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
	// Log, when non-nil, records the execution (see mpi.Config); it
	// does not affect the execution's outcome.
	Log *vtime.Log
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
			// The conversion rounds the product: no GOARCH may fuse it.
			return launch + units.Seconds(float64(perRank*units.Seconds(local+1)))
		},
		Log: spec.Log,
	}

	// The split of MPI_COMM_WORLD: the fluid code on world ranks
	// [0, fluidRanks), the solid code on the rest — none for CFD.
	run := runState{spec: spec, model: model, fluidRanks: job.Ranks}
	if spec.Case.Kind == FSI {
		run.fluidRanks = min(max(int(float64(job.Ranks)*spec.Case.FluidFraction), 1), job.Ranks-1)
	}
	var err error
	if run.fluidGrid, err = decomposeFor(spec.Case.FluidMesh, run.fluidRanks, job, 0); err != nil {
		return Result{}, err
	}
	if run.fluidRanks < job.Ranks {
		if run.solidGrid, err = decomposeFor(spec.Case.SolidMesh, job.Ranks-run.fluidRanks, job, run.fluidRanks); err != nil {
			return Result{}, err
		}
		run.iface = make([]int, run.fluidRanks)
		for f := range run.iface {
			run.iface[f] = max(1, run.fluidGrid.Part(f).WallCells())
		}
	}

	st, err := run.simulate(cfg)
	if err != nil {
		return Result{}, err
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
	// fluidRanks is the world size of the fluid code; the solid code
	// runs on the remaining ranks.
	fluidRanks int
	// iface is each fluid rank's coupling-payload size (FSI): its
	// wall-adjacent cell count, ≥ 1 so every pair exchanges something,
	// as Alya's coupling keeps all ranks in the communication schedule.
	iface []int

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

// simulate runs the rank program on every rank. A rank that fails
// returns early and leaves its partners blocked on it for good, so the
// kernel then panics with a deadlock: the recorded error is the cause
// and outranks it. Any other panic propagates; either way the kernel
// has unwound every rank before it reaches here.
func (rs *runState) simulate(cfg mpi.Config) (st mpi.Stats, err error) {
	defer func() {
		if rs.err != nil {
			recover()
			err = rs.err
		}
	}()
	return mpi.Run(cfg, rs.body)
}

// body is the per-rank program: world ranks [0, fluidRanks) run the
// fluid code and the rest the solid code, each on its own communicator,
// and the two exchange interface data every coupling iteration — two
// code instances, exactly as the paper describes.
func (rs *runState) body(r *mpi.Rank) {
	lo, hi, grid := 0, rs.fluidRanks, &rs.fluidGrid
	if r.ID() >= rs.fluidRanks {
		lo, hi, grid = rs.fluidRanks, r.Size(), &rs.solidGrid
	}
	comm, err := r.NewComm(lo, hi)
	if err != nil {
		rs.fail(err)
		return
	}
	part := grid.Part(comm.Rank())
	nbrs := part.Neighbors()
	rc := &rankComm{
		comm: comm, part: part, cells: float64(part.Cells()),
		model: rs.model, threads: rs.spec.Job.ThreadsPerRank, nbrs: nbrs,
		reqs: make([]*mpi.Request, 0, 2*len(nbrs)),
	}

	r.Barrier()
	start := r.Now()
	if r.ID() == 0 {
		rs.solveStart = start
		rs.startupComm = r.CommTime()
	}
	if r.ID() < rs.fluidRanks {
		rs.fluidRank(r, rc)
	} else {
		rs.solidRank(r, rc)
	}
	if rs.err != nil {
		return
	}
	r.Barrier()
	if r.ID() == 0 {
		rs.solveTime = r.Now() - start
	}
}

// pairOf returns the solid comm rank that fluid comm rank f couples
// with; the solid side enumerates its fluid partners by the same map.
func (rs *runState) pairOf(f int) int {
	return f * (rs.spec.Job.Ranks - rs.fluidRanks) / rs.fluidRanks
}

// fluidCode is what a fluid rank steps: realFluid or modelFluid. Couple
// is its half of one coupling iteration: send the solid partner the
// wall traction, then receive the wall motion.
type fluidCode interface {
	Step() (navier.StepStats, error)
	Couple(r *mpi.Rank)
}

// solidCode is what a solid rank steps: realSolid or modelSolid. Couple
// is its half of one coupling iteration: receive every fluid partner's
// traction, then send each the wall's mean radial velocity v.
type solidCode interface {
	Step() (solid.StepStats, error)
	Couple(r *mpi.Rank, v float64)
}

// fluidRank steps the fluid code; beside a solid code, every step ends
// with the coupling exchanges with the rank's solid partner.
func (rs *runState) fluidRank(r *mpi.Rank, rc *rankComm) {
	var couplings, peer, n int
	if rs.fluidRanks < r.Size() {
		couplings = rs.spec.Case.CouplingIters
		peer = rs.fluidRanks + rs.pairOf(rc.comm.Rank()) // world rank of the solid partner
		n = rs.iface[rc.comm.Rank()]
	}
	var code fluidCode = modelFluid{rc: rc, iters: rs.spec.Case.ModelCGIters, peer: peer, n: n}
	if rs.spec.Mode == ModeReal {
		solver, err := navier.NewSolver(rc.part, rs.spec.Case.FluidParams, rc)
		if err != nil {
			rs.fail(err)
			return
		}
		code = &realFluid{Solver: solver, peer: peer, traction: make([]float64, n), motion: make([]float64, n)}
	}

	for step := 0; step < rs.spec.Case.SimSteps; step++ {
		stats, err := code.Step()
		if err != nil {
			rs.fail(err)
			return
		}
		if r.ID() == 0 {
			rs.cgIters += float64(stats.CGIterations)
			rs.maxDiv = stats.MaxDivergence
		}
		for ci := 0; ci < couplings; ci++ {
			code.Couple(r)
		}
	}
}

// solidRank steps the solid code, SolidSubsteps per fluid step, and
// couples with every fluid rank paired to it.
func (rs *runState) solidRank(r *mpi.Rank, rc *rankComm) {
	var partners []int
	for f := 0; f < rs.fluidRanks; f++ {
		if rs.pairOf(f) == rc.comm.Rank() {
			partners = append(partners, f)
		}
	}
	var code solidCode = modelSolid{rc: rc, partners: partners, iface: rs.iface}
	if rs.spec.Mode == ModeReal {
		solver, err := solid.NewSolver(rc.part, rs.spec.Case.SolidParams, rc)
		if err != nil {
			rs.fail(err)
			return
		}
		// Interface payload sizes follow the fluid partner's wall size.
		bufs := make([][]float64, len(partners))
		for i, f := range partners {
			bufs[i] = make([]float64, rs.iface[f])
		}
		code = &realSolid{Solver: solver, partners: partners, bufs: bufs}
	}

	for step := 0; step < rs.spec.Case.SimSteps; step++ {
		var meanVel float64
		for sub := 0; sub < rs.spec.Case.SolidSubsteps; sub++ {
			stats, err := code.Step()
			if err != nil {
				rs.fail(err)
				return
			}
			meanVel = stats.MeanRadialVelocity
		}
		for ci := 0; ci < rs.spec.Case.CouplingIters; ci++ {
			code.Couple(r, meanVel)
		}
	}
}

// realFluid is ModeReal's fluid code: the solver and its interface
// buffers for the solid partner at world rank peer.
type realFluid struct {
	*navier.Solver
	peer             int
	traction, motion []float64
}

func (f *realFluid) Couple(r *mpi.Rank) {
	wp := f.WallPressure()
	for i := range f.traction {
		f.traction[i] = wp
	}
	r.Send(f.peer, tagCoupleTraction, f.traction)
	r.Recv(f.peer, tagCoupleMotion, f.motion)
	f.SetWallVelocity(f.motion[0] * 1e-3)
}

// realSolid is ModeReal's solid code: the solver and one interface
// buffer per fluid partner.
type realSolid struct {
	*solid.Solver
	partners []int
	bufs     [][]float64
}

func (s *realSolid) Couple(r *mpi.Rank, v float64) {
	var tractionSum float64
	for i, f := range s.partners {
		r.Recv(f, tagCoupleTraction, s.bufs[i])
		tractionSum += s.bufs[i][0]
	}
	if len(s.partners) > 0 {
		s.SetTraction(tractionSum / float64(len(s.partners)))
	}
	for i, f := range s.partners {
		for j := range s.bufs[i] {
			s.bufs[i][j] = v
		}
		r.Send(f, tagCoupleMotion, s.bufs[i])
	}
}

// A step program is a solver's Step as size-only data. An op exchanges
// n bundled fields' halos, charges flops and bytes per owned cell,
// reduces one scalar, or solves: runs cgRound ModelCGIters+n times,
// where n = 1 is CG's setup, which has an iteration's shape.
type op struct {
	kind         string
	n            int
	flops, bytes float64
}

func exchange(n int) op              { return op{kind: "exchange", n: n} }
func charge(flops, bytes float64) op { return op{kind: "charge", flops: flops, bytes: bytes} }

var allSum, allMax, solve = op{kind: "allsum"}, op{kind: "allmax"}, op{kind: "solve", n: 1}

// fluidStep is navier's tentative velocity, pressure solve, projection
// and diagnostics; cgRound is one krylov.CG iteration (the operator
// with its halo, pᵀAp, ‖r‖²); solidStep is solid's halo, update,
// wall-velocity count and sum, and maximum displacement.
var (
	fluidStep = []op{exchange(3), charge(navier.AssemblyFlopsPerCell, navier.AssemblyBytesPerCell), exchange(3), solve,
		exchange(1), exchange(3), charge(navier.ProjectionFlopsPerCell, navier.ProjectionBytesPerCell), allMax, allMax}
	cgRound   = []op{charge(navier.CGIterFlopsPerCell, navier.CGIterBytesPerCell), exchange(1), allSum, allSum}
	solidStep = []op{exchange(3), charge(solid.StepFlopsPerCell, solid.StepBytesPerCell), allSum, allSum, allMax}
)

// StepProgram renders the step programs a ModeModel cell of kind k runs,
// for core's cell keys: the fluid step and a CG round, and for FSI the
// solid step too.
func StepProgram(k Kind) string {
	if k == FSI {
		return fmt.Sprint(fluidStep, cgRound, solidStep)
	}
	return fmt.Sprint(fluidStep, cgRound)
}

// run performs program p size-only, each solve with iters CG iterations.
func (rc *rankComm) run(p []op, iters int) {
	for _, o := range p {
		switch o.kind {
		case "exchange":
			rc.ExchangeModel(o.n)
		case "charge":
			rc.Charge(rc.cells*o.flops, rc.cells*o.bytes)
		case "allsum":
			rc.AllSum(1)
		case "allmax":
			rc.AllMax(1)
		case "solve":
			for range iters + o.n {
				rc.run(cgRound, iters)
			}
		}
	}
}

// modelFluid is ModeModel's fluid code: fluidStep with a fixed CG
// iteration count. It holds no fields, so its coupling with the solid
// partner at world rank peer is size-only too: n float64s each way,
// the traction and motion a real fluid would send and receive.
type modelFluid struct {
	rc      *rankComm
	iters   int
	peer, n int
}

func (m modelFluid) Step() (navier.StepStats, error) {
	m.rc.run(fluidStep, m.iters)
	return navier.StepStats{CGIterations: m.iters}, nil
}

func (m modelFluid) Couple(r *mpi.Rank) {
	r.SendModel(m.peer, tagCoupleTraction, m.n)
	r.RecvModel(m.peer, tagCoupleMotion, m.n)
}

// modelSolid is ModeModel's solid code: solidStep, and the coupling
// with its fluid partners, size-only. iface is indexed by fluid rank.
type modelSolid struct {
	rc              *rankComm
	partners, iface []int
}

func (m modelSolid) Step() (solid.StepStats, error) {
	m.rc.run(solidStep, 0)
	return solid.StepStats{}, nil
}

func (m modelSolid) Couple(r *mpi.Rank, _ float64) {
	for _, f := range m.partners {
		r.RecvModel(f, tagCoupleTraction, m.iface[f])
	}
	for _, f := range m.partners {
		r.SendModel(f, tagCoupleMotion, m.iface[f])
	}
}
