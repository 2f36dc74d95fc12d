package experiments

import (
	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
)

// fig1Grid is the paper's Figure 1: average elapsed time of the artery
// CFD case on Lenox for bare-metal, Docker, Singularity and Shifter
// across five MPI ranks × OpenMP threads decompositions of the
// machine's 112 cores. Series.Point.X is the rank count.
func fig1Grid(opt Options) *Grid {
	lenox := cluster.Lenox()
	g := &Grid{
		Name:    "fig1",
		Title:   "Fig 1: average elapsed time of the artery CFD case in Lenox",
		Cluster: lenox, Case: opt.caseOr(alya.ArteryCFDLenox()),
		Mode: opt.Mode, Allreduce: mpi.AllreduceRecursiveDoubling,
		AxisHeader: "MPI x threads", CSVAxisHeader: "config",
	}
	for _, rt := range container.Runtimes() {
		g.Configs = append(g.Configs, GridConfig{Label: rt.Name(), Runtime: rt, Kind: container.SystemSpecific})
	}
	for _, h := range [][2]int{{8, 14}, {16, 7}, {28, 4}, {56, 2}, {112, 1}} {
		g.Axis = append(g.Axis, HybridPoint(lenox.TotalNodes, h[0], h[1]))
	}
	return g
}

// Fig1Specs enumerates Fig. 1's cells in sweep order (runtimes outer,
// hybrid configurations inner) — what a coordinated sweep leases out.
func Fig1Specs(opt Options) []CellSpec { return fig1Grid(opt).Specs() }

// Fig1 reproduces the paper's Figure 1 on the Lenox cluster.
func Fig1(opt Options) (*GridResult, error) { return fig1Grid(opt).Run(opt) }
