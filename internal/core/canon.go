package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/sched"
	"repro/internal/units"
)

// CellID is the simulation-relevant identity of a measurement: every
// input that can change a cell's simulated output, and nothing else.
// It names the image by its build inputs (runtime, source cluster,
// technique); its canonical form adds the model slice the cell reads
// (cellModel), built image included, evaluated once per deployment
// point.
type CellID struct {
	// Cluster is the machine the cell runs on.
	Cluster *cluster.Cluster
	// Runtime executes the cell; its concrete value carries the
	// version, which is part of the identity.
	Runtime container.Runtime
	// Kind is the image-building technique.
	Kind container.BuildKind
	// ImageFrom is the cluster the image was built for when it differs
	// from Cluster (cross-cluster portability runs); nil means Cluster.
	ImageFrom *cluster.Cluster
	// Case and the hybrid configuration mirror Cell.
	Case                  alya.Case
	Nodes, Ranks, Threads int
	Placement             sched.Placement
	Mode                  alya.Mode
	Allreduce             mpi.AllreduceAlgo
}

// canonCell is the canonical wire form of a CellID. Enum fields are
// encoded by name, not ordinal, so reordering a Go const block does
// not silently alias old cache entries onto new meanings; the runtime
// interface is split into its display name (the concrete type) and
// its concrete value (the version fields). Model is the cell's model
// checksum, the digest of the cellModel it reads, so a model edit
// re-keys exactly the cells whose slice it moves.
type canonCell struct {
	Cluster       *cluster.Cluster `json:"Cluster"`
	Runtime       string           `json:"Runtime"`
	RuntimeConfig interface{}      `json:"RuntimeConfig"`
	Kind          string           `json:"Kind"`
	ImageFrom     *cluster.Cluster `json:",omitempty"`
	Case          alya.Case        `json:"Case"`
	Nodes         int              `json:"Nodes"`
	Ranks         int              `json:"Ranks"`
	Threads       int              `json:"Threads"`
	Placement     string           `json:"Placement"`
	Mode          string           `json:"Mode"`
	Allreduce     string           `json:"Allreduce"`
	Model         string           `json:"Model"`
}

// Canon returns the canonical encoding of the identity: JSON with the
// fixed field order above. Two CellIDs produce the same bytes exactly
// when every simulation-relevant input matches.
func (id CellID) Canon() ([]byte, error) {
	if id.Cluster == nil || id.Runtime == nil {
		return nil, fmt.Errorf("core: cell identity needs a cluster and a runtime")
	}
	model, err := id.point().digest()
	if err != nil {
		return nil, err
	}
	return id.canon(model)
}

// canon encodes the identity with the given model digest.
func (id CellID) canon(model string) ([]byte, error) {
	return json.Marshal(canonCell{
		Cluster:       id.Cluster,
		Runtime:       id.Runtime.Name(),
		RuntimeConfig: id.Runtime,
		Kind:          id.Kind.String(),
		ImageFrom:     id.ImageFrom,
		Case:          id.Case,
		Nodes:         id.Nodes,
		Ranks:         id.Ranks,
		Threads:       id.Threads,
		Placement:     id.Placement.String(),
		Mode:          id.Mode.String(),
		Allreduce:     id.Allreduce.String(),
		Model:         model,
	})
}

// Fingerprint returns the content address of the identity: the sha256
// of its canonical encoding, in hex.
func (id CellID) Fingerprint() (string, error) {
	b, err := id.Canon()
	if err != nil {
		return "", err
	}
	return hexSum(b), nil
}

// hexSum is the sha256 of b, in hex.
func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cellModel is the slice of the simulator's model that RunCell
// evaluates for one cell beyond the tables CellID names: the runtime's
// verdict, image and costs on the cell's cluster, the OpenMP model and
// srun's launch latency at the cell's node count, and in ModeModel the
// step program of the cell's case kind. Error is the first evaluation
// that fails, in the sweep's order (image build, then RunCell's), so a
// deterministic failure keeps a key; nothing after it is read.
type cellModel struct {
	Error   string                  `json:",omitempty"`
	Image   *container.Image        `json:",omitempty"`
	Exec    *container.ExecProfile  `json:",omitempty"`
	Deploy  *container.DeployReport `json:",omitempty"`
	OMP     *omp.Model              `json:",omitempty"`
	Launch  units.Seconds           `json:",omitempty"`
	Program string                  `json:",omitempty"`
}

// modelPoint is a deployment point: every input of a cellModel, held
// by value. No field reaches a pointer, slice, map or func
// (TestModelValuesArePure), so two equal points read equal tables and
// the memo below can never answer for tables that have since changed.
type modelPoint struct {
	rt             container.Runtime
	cluster, image cluster.Cluster
	kind           container.BuildKind
	nodes          int
	mode           alya.Mode
	caseKind       alya.Kind
}

func (id CellID) point() modelPoint {
	img := id.Cluster
	if id.ImageFrom != nil {
		img = id.ImageFrom
	}
	return modelPoint{rt: id.Runtime, cluster: *id.Cluster, image: *img, kind: id.Kind,
		nodes: id.Nodes, mode: id.Mode, caseKind: id.Case.Kind}
}

// slice evaluates the cell's model, with program rendering the step
// program of a case kind.
func (p modelPoint) slice(program func(alya.Kind) string) cellModel {
	img, err := BuildImageFor(p.rt, &p.image, p.kind)
	if err == nil {
		err = p.rt.Available(&p.cluster)
	}
	var exec container.ExecProfile
	if err == nil {
		exec, err = p.rt.ExecProfile(&p.cluster, img)
	}
	var deploy container.DeployReport
	if err == nil {
		deploy, err = p.rt.Deploy(&p.cluster, img, p.nodes)
	}
	if err != nil {
		return cellModel{Error: err.Error()}
	}
	ompModel := omp.DefaultModel(p.cluster.Node)
	m := cellModel{Image: img, Exec: &exec, Deploy: &deploy, OMP: &ompModel,
		Launch: (&sched.Job{Nodes: p.nodes}).LaunchLatency()}
	if p.mode == alya.ModeModel {
		m.Program = program(p.caseKind)
	}
	return m
}

// sliceDigest is the hex sha256 of the slice's canonical JSON.
func (p modelPoint) sliceDigest(program func(alya.Kind) string) (string, error) {
	b, err := json.Marshal(p.slice(program))
	if err != nil {
		return "", err
	}
	return hexSum(b), nil
}

// modelMemo maps a modelPoint to its digest. Evaluating and encoding a
// slice costs about twice the rest of a key, and a warm replay re-keys
// every cell, so each deployment point is evaluated once per process;
// the memo grows with distinct deployments, not with cells.
var modelMemo = struct {
	sync.RWMutex
	m map[modelPoint]string
}{m: make(map[modelPoint]string)}

// digest is the memoized sliceDigest of the point's production model.
func (p modelPoint) digest() (string, error) {
	modelMemo.RLock()
	d, ok := modelMemo.m[p]
	modelMemo.RUnlock()
	if ok {
		return d, nil
	}
	d, err := p.sliceDigest(alya.StepProgram)
	if err != nil {
		return "", err
	}
	modelMemo.Lock()
	modelMemo.m[p] = d
	modelMemo.Unlock()
	return d, nil
}

// SavedResult is the persistable portion of a Result: the deployment
// and execution outcomes. The Cell echo is excluded — it embeds the
// runtime interface and model pointers, which do not round-trip
// through JSON — and is reattached by the caller from the spec it ran.
// Every field inside is a plain value (strings, ints, float-backed
// units), and Go's JSON encoder emits floats in the shortest form
// that round-trips exactly, so a saved result restores bit-identical.
type SavedResult struct {
	Deploy container.DeployReport `json:"Deploy"`
	Exec   alya.Result            `json:"Exec"`
}

// Saved extracts the persistable portion of a result.
func (r Result) Saved() SavedResult { return SavedResult{Deploy: r.Deploy, Exec: r.Exec} }

// Restore reattaches a cell configuration to a saved result, yielding
// a Result indistinguishable from one RunCell computed for that cell.
func (s SavedResult) Restore(c Cell) Result { return Result{Cell: c, Deploy: s.Deploy, Exec: s.Exec} }
