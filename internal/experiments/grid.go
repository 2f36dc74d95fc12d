package experiments

import (
	"fmt"
	"io"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
	"repro/internal/report"
)

// Grid is the one shape every figure of the evaluation has: a few
// runtime configurations swept over one axis, one elapsed-time curve
// per configuration. Fig. 1, Fig. 2, Fig. 3 and every compiled
// scenario spec are values of it, so cell enumeration, result
// reshaping and table/CSV/chart layout exist once.
type Grid struct {
	// Name prefixes cell labels ("fig2 Bare-metal 4 nodes") and names
	// the study in errors; Title heads the table and chart.
	Name, Title string
	// Cluster, Case, Mode and Allreduce are shared by every cell.
	Cluster   *cluster.Cluster
	Case      alya.Case
	Mode      alya.Mode
	Allreduce mpi.AllreduceAlgo
	// Configs are the curves (sweep order: outer); Axis the x points
	// (inner).
	Configs []GridConfig
	Axis    []GridPoint
	// AxisHeader and CSVAxisHeader head the axis column of the table
	// and of the CSV.
	AxisHeader, CSVAxisHeader string
	// ShowFabric appends each configuration's network path to its
	// time-column header.
	ShowFabric bool
	// Columns are the rendered column groups, one sub-column per
	// config each; nil means a single group of elapsed seconds.
	Columns []GridColumn
	// Chart makes Render follow the table with the elapsed-time chart.
	Chart bool
}

// GridConfig is one compared configuration: one curve of a grid.
type GridConfig struct {
	// Label names the curve in headers and cell labels.
	Label string
	// Runtime executes the cells; Kind is the image-building technique
	// (ignored for bare metal).
	Runtime container.Runtime
	Kind    container.BuildKind
	// ImageFrom, when non-nil, builds the image for that cluster
	// instead of the grid's.
	ImageFrom *cluster.Cluster
}

// GridPoint is one x-axis point of a grid.
type GridPoint struct {
	// Label names the point in cell labels ("4 nodes", "8x14").
	Label string
	// Row is the axis cell of the point's table/CSV row — an int for a
	// node count, the "RxT" string for a hybrid decomposition.
	Row any
	// X is the numeric axis value (node count or rank count).
	X                     int
	Nodes, Ranks, Threads int
}

// NodesPoint is the axis point of an n-node run.
func NodesPoint(n, ranksPerNode, threads int) GridPoint {
	return GridPoint{Label: fmt.Sprintf("%d nodes", n), Row: n, X: n, Nodes: n, Ranks: n * ranksPerNode, Threads: threads}
}

// HybridPoint is the axis point of a ranks×threads decomposition of a
// fixed node count.
func HybridPoint(nodes, ranks, threads int) GridPoint {
	label := fmt.Sprintf("%dx%d", ranks, threads)
	return GridPoint{Label: label, Row: label, X: ranks, Nodes: nodes, Ranks: ranks, Threads: threads}
}

// ColumnKind selects what a column group shows.
type ColumnKind int

const (
	// ColTime is elapsed seconds.
	ColTime ColumnKind = iota
	// ColSpeedup is the baseline config's time over each config's at
	// the same axis point (>1 = faster than baseline).
	ColSpeedup
	// ColEfficiency is the speedup against the baseline's first point,
	// divided by the ideal axis ratio x/x₀.
	ColEfficiency
)

// GridColumn is one column group; Baseline indexes Configs for
// speedup and efficiency.
type GridColumn struct {
	Kind     ColumnKind
	Baseline int
}

// Specs enumerates the grid's cells in sweep order: configs outer,
// axis inner.
func (g *Grid) Specs() []CellSpec {
	specs := make([]CellSpec, 0, len(g.Configs)*len(g.Axis))
	for _, cfg := range g.Configs {
		for _, ax := range g.Axis {
			specs = append(specs, CellSpec{
				Label:   fmt.Sprintf("%s %s %s", g.Name, cfg.Label, ax.Label),
				Cluster: g.Cluster, Runtime: cfg.Runtime, Kind: cfg.Kind,
				ImageFrom: cfg.ImageFrom,
				Case:      g.Case,
				Nodes:     ax.Nodes, Ranks: ax.Ranks, Threads: ax.Threads,
				Mode: g.Mode, Allreduce: g.Allreduce,
			})
		}
	}
	return specs
}

// GridResult holds a grid run: one elapsed-time series per config over
// the axis, plus the network path each config used.
type GridResult struct {
	// Grid is the study that produced the result.
	Grid *Grid
	// Series holds one curve per config in grid order; Point.X is the
	// axis value.
	Series []report.Series
	// Fabrics records each config's network path (its last axis
	// point's).
	Fabrics []string
}

// Run sweeps the grid's cells and shapes them into series. The grid
// defines the workload and axis, so of opt only the engine settings
// (parallelism, store, shard, FromStore, stats, taps) apply.
func (g *Grid) Run(opt Options) (*GridResult, error) {
	results, err := NewSweep(opt).Run(g.Specs())
	if err != nil {
		return nil, err
	}
	out := &GridResult{Grid: g}
	for ci, cfg := range g.Configs {
		s := report.Series{Label: cfg.Label}
		fabric := ""
		for ai, ax := range g.Axis {
			res := results[ci*len(g.Axis)+ai]
			s.Points = append(s.Points, report.Point{X: ax.X, T: res.Exec.Elapsed})
			fabric = res.Exec.FabricPath
		}
		out.Series = append(out.Series, s)
		out.Fabrics = append(out.Fabrics, fabric)
	}
	return out, nil
}

// SeriesByLabel finds a curve by config label.
func (r *GridResult) SeriesByLabel(label string) (*report.Series, error) {
	for i := range r.Series {
		if r.Series[i].Label == label {
			return &r.Series[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: %s has no series %q", r.Grid.Name, label)
}

// columnSuffix is what a sub-column header appends to its config's
// label, in the table and in CSV.
var columnSuffix = [...]struct{ table, csv string }{
	ColTime:       {" [s]", ""},
	ColSpeedup:    {" speedup", "_speedup"},
	ColEfficiency: {" eff", "_efficiency"},
}

// header renders one sub-column header.
func (r *GridResult) header(col GridColumn, ci int, csv bool) string {
	label := r.Grid.Configs[ci].Label
	switch {
	case csv:
		return label + columnSuffix[col.Kind].csv
	case col.Kind == ColTime && r.Grid.ShowFabric:
		return fmt.Sprintf("%s [s] (%s)", label, r.Fabrics[ci])
	}
	return label + columnSuffix[col.Kind].table
}

// value computes one sub-column value at an axis row (see ColumnKind).
func (r *GridResult) value(col GridColumn, ci, row int) float64 {
	t := float64(r.Series[ci].Points[row].T)
	if t <= 0 {
		return 0
	}
	switch col.Kind {
	case ColSpeedup:
		return float64(r.Series[col.Baseline].Points[row].T) / t
	case ColEfficiency:
		base := float64(r.Series[col.Baseline].Points[0].T)
		x0, x := float64(r.Grid.Axis[0].X), float64(r.Grid.Axis[row].X)
		if x0 <= 0 || x <= 0 {
			return 0
		}
		return (base / t) / (x / x0)
	}
	return t
}

// table lays the result out — one row per axis point, one column per
// (column group, config) pair — with raw floats for CSV and fixed
// precision for the aligned table.
func (r *GridResult) table(csv bool) *report.Table {
	g := r.Grid
	cols := g.Columns
	if len(cols) == 0 {
		cols = []GridColumn{{Kind: ColTime}}
	}
	title, axis := g.Title, g.AxisHeader
	if csv {
		title, axis = "", g.CSVAxisHeader
	}
	headers := []string{axis}
	for _, col := range cols {
		for ci := range g.Configs {
			headers = append(headers, r.header(col, ci, csv))
		}
	}
	t := report.NewTable(title, headers...)
	for row, ax := range g.Axis {
		cells := []any{ax.Row}
		for _, col := range cols {
			for ci := range g.Configs {
				switch v := r.value(col, ci, row); {
				case csv:
					cells = append(cells, v)
				case col.Kind == ColTime:
					cells = append(cells, report.Seconds(r.Series[ci].Points[row].T))
				default:
					cells = append(cells, fmt.Sprintf("%.2f", v))
				}
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Render writes the result as an aligned table, followed by the chart
// when the grid asks for one.
func (r *GridResult) Render(w io.Writer) {
	r.table(false).Render(w)
	if r.Grid.Chart {
		fmt.Fprintln(w)
		r.RenderChart(w)
	}
}

// CSV writes the result as machine-readable data, raw floats.
func (r *GridResult) CSV(w io.Writer) { r.table(true).CSV(w) }

// RenderChart writes the elapsed-time curves as an ASCII chart.
func (r *GridResult) RenderChart(w io.Writer) {
	c := report.Chart{Title: r.Grid.Title, YLabel: "seconds", Series: r.Series}
	c.Render(w)
}
