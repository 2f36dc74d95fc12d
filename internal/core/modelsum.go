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
	"repro/internal/omp"
	"repro/internal/sched"
	"repro/internal/units"
)

// ModelChecksum fingerprints the simulator's model: the cluster tables
// (which embed the fabric transports and storage models), the container
// runtimes' build/deploy/execution profiles, the paper's workload cases,
// ModeModel's step programs, the OpenMP models and the job-launch
// latency. Any change to a number or step that can alter simulated
// output changes the checksum, so persisted results stamped with it
// self-invalidate instead of replaying outdated figures.
func ModelChecksum() string {
	modelChecksumOnce.Do(func() {
		sig, err := modelSignature(cluster.All(), alya.StepPrograms())
		if err != nil {
			// The tables are static data assembled in code; failing to
			// marshal them is a programming error, not a runtime state.
			panic(fmt.Sprintf("core: model signature: %v", err))
		}
		modelChecksum = checksumOf(sig)
	})
	return modelChecksum
}

var (
	modelChecksumOnce sync.Once
	modelChecksum     string
)

// checksumOf hashes the canonical JSON encoding of a signature.
func checksumOf(sig []byte) string {
	sum := sha256.Sum256(sig)
	return hex.EncodeToString(sum[:])
}

// modelSignature assembles every model table reachable as data for the
// given clusters and step programs. Behaviour encoded as arithmetic
// (deploy breakdowns, execution profiles, image builds) is captured
// through representative evaluations per runtime × cluster × technique,
// so editing a cost constant inside any runtime model changes the
// signature even though the constant itself is not exported.
func modelSignature(clusters []*cluster.Cluster, programs string) ([]byte, error) {
	type runtimeCell struct {
		Cluster   string `json:"Cluster"`
		Technique string `json:"Technique"`
		// Available is the availability verdict ("" = runnable).
		Available string `json:"Available"`
		// Image, Deploy, Exec capture the runtime's cost tables as
		// evaluated data. Omitted where the runtime is unavailable.
		Image  *container.Image        `json:",omitempty"`
		Deploy *container.DeployReport `json:",omitempty"`
		Exec   *container.ExecProfile  `json:",omitempty"`
	}
	type runtimeSig struct {
		Name   string
		Config container.Runtime
		Cells  []runtimeCell
	}
	sig := struct {
		Clusters []*cluster.Cluster
		Runtimes []runtimeSig
		Cases    []alya.Case
		Programs string
		OMP      []omp.Model
		// Launch samples srun's fan-out cost, which offsets every rank's
		// start: one node count per launch-tree depth, up to the largest
		// cluster.
		Launch map[int]units.Seconds
	}{
		Clusters: clusters,
		Launch:   make(map[int]units.Seconds),
		Cases: []alya.Case{
			alya.ArteryCFDLenox(),
			alya.ArteryCFDCTEPower(),
			alya.ArteryFSIMareNostrum4(),
			alya.QuickCFD(1),
			alya.QuickFSI(1),
		},
		Programs: programs,
	}
	maxNodes := 1
	for _, cl := range clusters {
		sig.OMP = append(sig.OMP, omp.DefaultModel(cl.Node))
		maxNodes = max(maxNodes, cl.TotalNodes)
	}
	for n := 1; n < 2*maxNodes; n *= 2 {
		nodes := min(n, maxNodes)
		sig.Launch[nodes] = (&sched.Job{Nodes: nodes}).LaunchLatency()
	}
	for _, rt := range container.Runtimes() {
		rs := runtimeSig{Name: rt.Name(), Config: rt}
		for _, cl := range clusters {
			for _, kind := range []container.BuildKind{container.SystemSpecific, container.SelfContained} {
				cell := runtimeCell{Cluster: cl.Name, Technique: kind.String()}
				if err := rt.Available(cl); err != nil {
					cell.Available = err.Error()
					rs.Cells = append(rs.Cells, cell)
					continue
				}
				img, err := BuildImageFor(rt, cl, kind)
				if err != nil {
					return nil, err
				}
				dep, err := rt.Deploy(cl, img, 2)
				if err != nil {
					return nil, err
				}
				exec, err := rt.ExecProfile(cl, img)
				if err != nil {
					return nil, err
				}
				cell.Image, cell.Deploy, cell.Exec = img, &dep, &exec
				rs.Cells = append(rs.Cells, cell)
			}
		}
		sig.Runtimes = append(sig.Runtimes, rs)
	}
	return json.Marshal(sig)
}
