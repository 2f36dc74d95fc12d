package experiments

import (
	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
)

// Fig2Variants returns the three curves Fig. 2 and Fig. 3 share:
// bare metal and Singularity with either image-building technique.
func Fig2Variants() []GridConfig {
	return []GridConfig{
		{Label: "Bare-metal", Runtime: container.BareMetal{}},
		{Label: "Singularity system-specific", Runtime: container.Singularity{Version: "2.5.1"}, Kind: container.SystemSpecific},
		{Label: "Singularity self-contained", Runtime: container.Singularity{Version: "2.5.1"}, Kind: container.SelfContained},
	}
}

// variantsOverNodes completes g into the shape Fig. 2 and Fig. 3
// share: the three variants over node counts, every core an MPI rank,
// each curve headed by the network path it took.
func variantsOverNodes(g Grid, nodes []int) *Grid {
	g.Configs = Fig2Variants()
	for _, n := range nodes {
		g.Axis = append(g.Axis, NodesPoint(n, g.Cluster.CoresPerNode(), 1))
	}
	g.AxisHeader, g.CSVAxisHeader, g.ShowFabric = "Nodes", "nodes", true
	return &g
}

// fig2Grid is the paper's Figure 2: average elapsed time of the artery
// CFD case on CTE-POWER, 2–16 nodes.
func fig2Grid(opt Options) *Grid {
	return variantsOverNodes(Grid{
		Name:    "fig2",
		Title:   "Fig 2: average elapsed time of artery CFD case in CTE-POWER",
		Cluster: cluster.CTEPower(), Case: opt.caseOr(alya.ArteryCFDCTEPower()),
		Mode: opt.Mode, Allreduce: mpi.AllreduceRecursiveDoubling,
	}, opt.nodesOr([]int{2, 4, 6, 8, 10, 12, 14, 16}))
}

// Fig2Specs enumerates Fig. 2's cells in sweep order (variants outer,
// node counts inner) — what a coordinated sweep leases out.
func Fig2Specs(opt Options) []CellSpec { return fig2Grid(opt).Specs() }

// Fig2 reproduces the paper's Figure 2 on CTE-POWER.
func Fig2(opt Options) (*GridResult, error) { return fig2Grid(opt).Run(opt) }
