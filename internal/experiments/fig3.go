package experiments

import (
	"fmt"
	"io"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/report"
)

// Fig3Result holds the reproduced Fig. 3: strong-scaling speedup of the
// artery FSI case on MareNostrum4, 4–256 nodes. The embedded grid
// result carries the elapsed times; what is Fig. 3's own is the
// paper's normalization — each variant against its own smallest run —
// which its Render, CSV and RenderChart apply.
type Fig3Result struct {
	*GridResult
}

// Fig3 reproduces the paper's Figure 3 on MareNostrum4. The big FSI
// runs use the hierarchical (shared-memory-aware) allreduce that any
// production MPI applies at this scale; the ablation bench compares the
// flat algorithms.
func Fig3(opt Options) (*Fig3Result, error) {
	g := variantsOverNodes(Grid{
		Name:    "fig3",
		Title:   "Fig 3: scalability (speedup vs own 4-node run) of Alya artery FSI in MareNostrum4",
		Cluster: cluster.MareNostrum4(), Case: opt.caseOr(alya.ArteryFSIMareNostrum4()),
		Mode: opt.Mode, Allreduce: mpi.AllreduceHierarchical,
	}, opt.nodesOr([]int{4, 8, 16, 32, 64, 128, 256}))
	res, err := g.Run(opt)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{res}, nil
}

// speedups returns each variant's speedup curve, indexed
// [series][point].
func (f *Fig3Result) speedups() [][]float64 {
	out := make([][]float64, len(f.Series))
	for i := range f.Series {
		out[i] = f.Series[i].Speedup()
	}
	return out
}

// Render writes the figure as a table of speedups plus the ideal line.
func (f *Fig3Result) Render(w io.Writer) {
	headers := []string{f.Grid.AxisHeader, "Ideal"}
	for i, s := range f.Series {
		headers = append(headers, fmt.Sprintf("%s (%s)", s.Label, f.Fabrics[i]))
	}
	t := report.NewTable(f.Grid.Title, headers...)
	speedups := f.speedups()
	base := float64(f.Grid.Axis[0].X)
	for i, ax := range f.Grid.Axis {
		row := []any{ax.Row, fmt.Sprintf("%.1f", float64(ax.X)/base)}
		for si := range f.Series {
			row = append(row, fmt.Sprintf("%.2f", speedups[si][i]))
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// CSV writes elapsed times and speedups as CSV.
func (f *Fig3Result) CSV(w io.Writer) {
	headers := []string{f.Grid.CSVAxisHeader}
	for _, s := range f.Series {
		headers = append(headers, s.Label+"_seconds", s.Label+"_speedup")
	}
	t := report.NewTable("", headers...)
	speedups := f.speedups()
	for i, ax := range f.Grid.Axis {
		row := []any{ax.Row}
		for si, s := range f.Series {
			row = append(row, float64(s.Points[i].T), speedups[si][i])
		}
		t.AddRow(row...)
	}
	t.CSV(w)
}

// RenderChart writes the speedup curves as an ASCII chart, the closest
// textual analogue of the paper's plot.
func (f *Fig3Result) RenderChart(w io.Writer) {
	c := report.Chart{
		Title:  "Fig 3: FSI speedup vs nodes (each variant normalized to its 4-node run)",
		YLabel: "speedup",
		Series: f.Series,
		Values: f.speedups(),
	}
	c.Render(w)
}
