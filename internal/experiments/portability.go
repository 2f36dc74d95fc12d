package experiments

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
	"repro/internal/report"
	"repro/internal/topology"
)

// PortabilityCell is one (image build, target cluster) attempt.
type PortabilityCell struct {
	// ImageArch and Kind identify the build; BuiltFor names the host
	// ABI a system-specific image binds.
	ImageArch topology.ISA
	Kind      container.BuildKind
	BuiltFor  string
	// Cluster is the target machine.
	Cluster string
	// Runs reports whether the image executes there.
	Runs bool
	// Why explains a failure ("wrong architecture", "host ABI
	// mismatch") or names the fabric path used on success.
	Why string
	// SlowdownVsBare is elapsed time relative to bare metal on the
	// same cluster and configuration (successful runs only).
	SlowdownVsBare float64
}

// PortabilityResult holds the §B.2 matrix: the same containerized
// application built with two techniques, attempted on all three
// architectures.
type PortabilityResult struct {
	// Cells has one entry per (build, cluster) attempt.
	Cells []PortabilityCell
}

// portabilityClusters are the three study architectures plus Lenox;
// Lenox and MareNostrum4 share the amd64 ISA but different host MPI
// stacks, which is the pair that exposes the system-specific
// technique's ABI coupling (not just its ISA coupling).
func portabilityClusters() []*cluster.Cluster {
	return []*cluster.Cluster{cluster.MareNostrum4(), cluster.CTEPower(), cluster.ThunderX(), cluster.Lenox()}
}

// Portability reproduces the build-technique × architecture study:
// every image is built once (for its source cluster and technique) and
// attempted everywhere. Whether an attempt runs, and why not, is pure
// arithmetic over the memoized builds, settled serially; the slowdown
// of each runnable attempt is a pair of 2-node cells — the container
// run and its target's bare-metal baseline, shared by every attempt on
// that target — enumerated up front and produced by one Sweep.Run, so
// the store, shard and merge contracts are the figures' own.
func Portability(opt Options) (*PortabilityResult, error) {
	targets := portabilityClusters()
	sing := container.Singularity{Version: "2.5.x"}
	cs := opt.caseOr(alya.QuickCFD(4))
	cs.SimSteps = 1
	cs.Steps = 1
	spec := func(label string, target *cluster.Cluster, rt container.Runtime, from *cluster.Cluster, kind container.BuildKind) CellSpec {
		const nodes = 2
		return CellSpec{
			Label:   label,
			Cluster: target, Runtime: rt, Kind: kind, ImageFrom: from,
			Case:  cs,
			Nodes: nodes, Ranks: nodes * target.CoresPerNode(), Threads: 1,
			Mode: opt.Mode, Allreduce: mpi.AllreduceRecursiveDoubling,
		}
	}

	sw := NewSweep(opt)
	out := &PortabilityResult{}
	var specs []CellSpec
	// slowdown names, for one runnable attempt, its matrix cell and the
	// two specs whose elapsed times it divides.
	type slowdown struct{ cell, bare, cont int }
	var slowdowns []slowdown
	bareAt := make(map[string]int) // target name → its baseline's index in specs
	for _, source := range targets {
		for _, kind := range []container.BuildKind{container.SystemSpecific, container.SelfContained} {
			img, err := sw.ImageFor(sing, source, kind)
			if err != nil {
				return nil, fmt.Errorf("portability build %s/%v: %w", source.Name, kind, err)
			}
			for _, target := range targets {
				cell := PortabilityCell{
					ImageArch: img.Arch,
					Kind:      kind,
					BuiltFor:  source.Name,
					Cluster:   target.Name,
				}
				profile, err := sing.ExecProfile(target, img)
				switch {
				case errors.Is(err, container.ErrWrongArch):
					cell.Why = "wrong architecture (exec format error)"
				case errors.Is(err, container.ErrHostABI):
					cell.Why = "host MPI/fabric ABI mismatch"
				case err != nil:
					cell.Why = err.Error()
				default:
					cell.Runs = true
					cell.Why = "runs via " + profile.FabricPath
					bare, ok := bareAt[target.Name]
					if !ok {
						bare = len(specs)
						bareAt[target.Name] = bare
						specs = append(specs, spec(fmt.Sprintf("portability bare-metal on %s", target.Name),
							target, container.BareMetal{}, nil, container.SystemSpecific))
					}
					slowdowns = append(slowdowns, slowdown{cell: len(out.Cells), bare: bare, cont: len(specs)})
					specs = append(specs, spec(fmt.Sprintf("portability %s/%v on %s", source.Name, kind, target.Name),
						target, sing, source, kind))
				}
				out.Cells = append(out.Cells, cell)
			}
		}
	}

	res, err := sw.Run(specs)
	if err != nil {
		return nil, err
	}
	for _, sd := range slowdowns {
		bare := float64(res[sd.bare].Exec.Elapsed)
		if bare <= 0 {
			return nil, fmt.Errorf("portability: zero bare-metal time")
		}
		out.Cells[sd.cell].SlowdownVsBare = float64(res[sd.cont].Exec.Elapsed) / bare
	}
	return out, nil
}

// Find returns the cell for a build (by source cluster and kind) on a
// target cluster.
func (p *PortabilityResult) Find(builtFor string, kind container.BuildKind, target string) (*PortabilityCell, error) {
	for i := range p.Cells {
		c := &p.Cells[i]
		if c.BuiltFor == builtFor && c.Kind == kind && c.Cluster == target {
			return c, nil
		}
	}
	return nil, fmt.Errorf("experiments: no portability cell %s/%v on %s", builtFor, kind, target)
}

// Render writes the matrix.
func (p *PortabilityResult) Render(w io.Writer) {
	t := report.NewTable("Portability: image builds × target architectures (Singularity)",
		"Image (built for)", "Technique", "Arch", "Target", "Outcome", "Slowdown vs bare")
	for _, c := range p.Cells {
		slow := "-"
		if c.Runs {
			slow = fmt.Sprintf("%.2fx", c.SlowdownVsBare)
		}
		t.AddRow(c.BuiltFor, c.Kind.String(), string(c.ImageArch), c.Cluster, c.Why, slow)
	}
	t.Render(w)
}
