// Package containerhpc reproduces "Containers in HPC: A Scalability and
// Portability Study in Production Biological Simulations" (Rudyy et
// al., IPDPS 2019) as a deterministic simulation study.
//
// The package is a facade over the internal engine. It exposes:
//
//   - the four study clusters (Lenox, MareNostrum4, CTE-POWER,
//     ThunderX) with their processors, interconnects, and filesystems;
//   - the container runtimes (Docker, Singularity, Shifter) plus the
//     bare-metal reference, with image building in the paper's two
//     techniques (system-specific and self-contained);
//   - the Alya-like workloads (artery CFD and coupled FSI) that run
//     over a virtual-time MPI with real numerics or a calibrated
//     workload model;
//   - the experiments that regenerate every figure and table of the
//     paper's evaluation.
//
// Quick start:
//
//	cl := containerhpc.Lenox()
//	rt := containerhpc.NewSingularity()
//	img, _ := containerhpc.BuildImage(rt, cl, containerhpc.SystemSpecific)
//	res, _ := containerhpc.RunCell(containerhpc.Cell{
//		Cluster: cl, Runtime: rt, Image: img,
//		Case:  containerhpc.QuickCFD(5),
//		Nodes: 2, Ranks: 8, Threads: 1,
//		Mode: containerhpc.ModeReal,
//	})
//	fmt.Println(res.Exec.TimePerStep)
//
// All results are exact functions of their inputs: the simulator is a
// sequential discrete-event machine with a deterministic schedule.
package containerhpc

import (
	"io"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/registry"
	"repro/internal/resultdb"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/units"
)

// Re-exported model types: the ones a caller has to name to drive the
// library. Everything else — stores, sweeps, registries, profiles — is
// reached through the values these functions return; code inside this
// module imports the internal packages directly, and
// TestFacadeExportsAreUsed rejects a re-export with no caller.
type (
	// Cluster is one HPC machine (topology + fabric + storage).
	Cluster = cluster.Cluster
	// Runtime is a container technology under study.
	Runtime = container.Runtime
	// BuildKind is the image-building technique.
	BuildKind = container.BuildKind
	// Case is an Alya benchmark configuration.
	Case = alya.Case
	// Mode selects real numerics vs the workload model.
	Mode = alya.Mode
	// Cell is one measurement of the study.
	Cell = core.Cell
	// Result is a cell's outcome.
	Result = core.Result
	// Placement is the rank-distribution policy.
	Placement = sched.Placement
	// AllreduceAlgo selects the collective algorithm.
	AllreduceAlgo = mpi.AllreduceAlgo
	// ByteSize is a byte count.
	ByteSize = units.ByteSize
	// Options tunes an experiment sweep.
	Options = experiments.Options
	// SchemaMismatchError reports a registry of another record
	// generation than this binary.
	SchemaMismatchError = registry.SchemaMismatchError
	// RecordedError is a failure replayed from the result store's
	// negative cache instead of re-simulating a known-bad cell.
	RecordedError = resultdb.RecordedError
	// ScenarioFieldError locates a spec mistake by JSON field path.
	ScenarioFieldError = scenario.FieldError
)

// OpenStore opens (creating if needed) a persistent directory result
// store. Attach it via Options.Store: sweeps then replay cached cells
// and commit fresh ones, so a warm rerun of any figure is
// byte-identical to the cold run while simulating nothing.
func OpenStore(dir string) (*resultdb.DirStore, error) { return resultdb.Open(dir) }

// DialStore connects to a result registry (`hpcstudy serve`) and
// performs the schema handshake; a registry of another record
// generation fails with *SchemaMismatchError before any record is
// exchanged. The client is an Options.Store too, so sweeps and
// merges against a URL behave exactly as against a local directory.
func DialStore(url string) (*registry.Client, error) {
	return registry.Dial(url, registry.ClientOptions{})
}

// LoadScenario reads, validates, and compiles a JSON scenario spec
// file into a runnable study: a declarative sweep resolved against the
// model and expanded into cells, run with the same Options every
// built-in figure takes. Validation failures are *ScenarioFieldError
// values naming the offending field path.
func LoadScenario(path string) (*scenario.Study, error) { return scenario.Load(path) }

// ParseScenario compiles a spec read from r; name labels errors
// (usually a file path or "<stdin>").
func ParseScenario(r io.Reader, name string) (*scenario.Study, error) {
	return scenario.Parse(r, name)
}

// NewMesh builds a uniform mesh with cubic cells of size h — the
// building block for custom cases.
func NewMesh(nx, ny, nz int, h float64) (mesh.Mesh, error) {
	return mesh.NewMesh(nx, ny, nz, h, h, h)
}

// Image-building techniques (paper §B.2).
const (
	// SystemSpecific images bind the host MPI/fabric stack: fast
	// network, zero portability across hosts.
	SystemSpecific = container.SystemSpecific
	// SelfContained images bundle a generic MPI: portable across
	// same-ISA hosts, TCP only.
	SelfContained = container.SelfContained
)

// Execution modes.
const (
	// ModeModel charges compute analytically and exchanges size-only
	// messages costed like correctly sized payloads; scales to 12,288
	// simulated cores.
	ModeModel = alya.ModeModel
	// ModeReal runs the actual Navier–Stokes/elasticity numerics.
	ModeReal = alya.ModeReal
)

// Rank placements.
const (
	// PlaceBlock fills nodes in rank order.
	PlaceBlock = sched.PlaceBlock
	// PlaceCyclic deals ranks round-robin.
	PlaceCyclic = sched.PlaceCyclic
)

// Allreduce algorithms (see the ablation benches).
const (
	AllreduceRecursiveDoubling = mpi.AllreduceRecursiveDoubling
	AllreduceRing              = mpi.AllreduceRing
	AllreduceReduceBcast       = mpi.AllreduceReduceBcast
	AllreduceHierarchical      = mpi.AllreduceHierarchical
)

// The four clusters of the study (paper §A).

// Lenox returns the 4-node Lenovo cluster (Haswell, 1 GbE) — the only
// machine with administrative rights, hence Docker and Shifter.
func Lenox() *Cluster { return cluster.Lenox() }

// MareNostrum4 returns BSC's Tier-0 Skylake machine (Omni-Path).
func MareNostrum4() *Cluster { return cluster.MareNostrum4() }

// CTEPower returns BSC's Power9 cluster (InfiniBand EDR).
func CTEPower() *Cluster { return cluster.CTEPower() }

// ThunderX returns the Mont-Blanc Armv8 mini-cluster (40 GbE).
func ThunderX() *Cluster { return cluster.ThunderX() }

// Clusters returns all four machines.
func Clusters() []*Cluster { return cluster.All() }

// ClusterByName finds a preset machine.
func ClusterByName(name string) (*Cluster, error) { return cluster.ByName(name) }

// The runtimes of the study (paper §B.1).

// NewBareMetal returns the reference execution environment.
func NewBareMetal() Runtime { return container.BareMetal{} }

// NewDocker returns the Docker runtime model (1.11.1, as on Lenox).
func NewDocker() Runtime { return container.Docker{Version: "1.11.1"} }

// NewSingularity returns the Singularity runtime model (2.4–2.5).
func NewSingularity() Runtime { return container.Singularity{Version: "2.4.5"} }

// NewShifter returns the Shifter runtime model (16.08.3).
func NewShifter() Runtime { return container.Shifter{Version: "16.08.3"} }

// Runtimes returns the four runtimes in study order.
func Runtimes() []Runtime { return container.Runtimes() }

// RuntimeByName finds a runtime by display name.
func RuntimeByName(name string) (Runtime, error) { return container.ByName(name) }

// BuildImage builds the Alya OCI image for a cluster with the given
// technique and converts it to the runtime's format (nil for
// bare metal).
func BuildImage(rt Runtime, cl *Cluster, kind BuildKind) (*container.Image, error) {
	return core.BuildImageFor(rt, cl, kind)
}

// The workloads.

// ArteryCFDLenox returns the Fig. 1 CFD case.
func ArteryCFDLenox() Case { return alya.ArteryCFDLenox() }

// ArteryCFDCTEPower returns the Fig. 2 CFD case.
func ArteryCFDCTEPower() Case { return alya.ArteryCFDCTEPower() }

// ArteryFSIMareNostrum4 returns the Fig. 3 FSI case.
func ArteryFSIMareNostrum4() Case { return alya.ArteryFSIMareNostrum4() }

// QuickCFD returns a laptop-scale CFD case (real numerics).
func QuickCFD(steps int) Case { return alya.QuickCFD(steps) }

// QuickFSI returns a laptop-scale coupled FSI case (real numerics).
func QuickFSI(steps int) Case { return alya.QuickFSI(steps) }

// RunCell executes one measurement: deploy the image, launch the job,
// run the case, and collect deployment plus execution metrics.
func RunCell(c Cell) (Result, error) { return core.RunCell(c) }

// The experiments (paper §B/§C). The zero Options reproduces the
// paper-scale sweep; see the experiments package for the knobs.

// Fig3 regenerates Figure 3 (FSI scalability on MareNostrum4).
func Fig3(opt Options) (*experiments.Fig3Result, error) { return experiments.Fig3(opt) }

// Solutions regenerates the deployment-overhead/image-size comparison.
func Solutions(opt Options) (*experiments.SolutionsResult, error) { return experiments.Solutions(opt) }

// Portability regenerates the build-technique × architecture matrix.
func Portability(opt Options) (*experiments.PortabilityResult, error) {
	return experiments.Portability(opt)
}
