package scenario

import (
	"fmt"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/experiments"
	"repro/internal/mpi"
)

// Study is a compiled spec: every name resolved against the model
// into an experiments.Grid — the same value the built-in figures are —
// with the grid's cells enumerated and fingerprinted. Compilation is
// pure — no image builds, no simulation — so `hpcstudy validate` and
// -list stay instant.
type Study struct {
	grid  *experiments.Grid
	cells []experiments.CellSpec
	keys  []string
}

// columnKinds resolves ColumnSpec.Kind.
var columnKinds = map[string]experiments.ColumnKind{
	"time": experiments.ColTime, "speedup": experiments.ColSpeedup, "efficiency": experiments.ColEfficiency,
}

// Compile validates the spec against the model and expands it into
// runnable cells. Every validation failure is a *FieldError naming
// the offending field path.
func (sp Spec) Compile() (*Study, error) {
	if sp.Name == "" {
		return nil, errf("name", "required")
	}
	g := &experiments.Grid{
		Name: sp.Name, Title: sp.Title,
		AxisHeader: sp.Report.AxisHeader, CSVAxisHeader: sp.Report.CSVAxisHeader,
		ShowFabric: sp.Report.ShowFabric, Chart: sp.Report.Chart,
	}
	if g.Title == "" {
		g.Title = sp.Name
	}

	// Cluster.
	if sp.Cluster == "" {
		return nil, errf("cluster", "required (known: %s)", joinKnown(clusterNames()))
	}
	cl, err := cluster.ByName(sp.Cluster)
	if err != nil {
		return nil, errf("cluster", "unknown machine %q (known: %s)", sp.Cluster, joinKnown(clusterNames()))
	}
	g.Cluster = cl

	// Case.
	if sp.Case.Name == "" {
		return nil, errf("case.name", "required (known: %s)", joinKnown(alya.CaseNames()))
	}
	cs, err := alya.CaseByName(sp.Case.Name)
	if err != nil {
		return nil, errf("case.name", "unknown case %q (known: %s)", sp.Case.Name, joinKnown(alya.CaseNames()))
	}
	for _, f := range []struct {
		path string
		v    int
		dst  *int
	}{
		{"case.steps", sp.Case.Steps, &cs.Steps},
		{"case.sim_steps", sp.Case.SimSteps, &cs.SimSteps},
		{"case.model_cg_iters", sp.Case.ModelCGIters, &cs.ModelCGIters},
	} {
		if f.v < 0 {
			return nil, errf(f.path, "must be ≥ 1 (0 keeps the case's own value), got %d", f.v)
		}
		if f.v > 0 {
			*f.dst = f.v
		}
	}
	if err := cs.Validate(); err != nil {
		return nil, errf("case", "%v", err)
	}
	g.Case = cs

	// Configs.
	if len(sp.Configs) == 0 {
		return nil, errf("configs", "at least one configuration is required")
	}
	seenLabels := make(map[string]int)
	for i, c := range sp.Configs {
		path := fmt.Sprintf("configs[%d]", i)
		if c.Runtime == "" {
			return nil, errf(path+".runtime", "required (known: %s)", joinKnown(runtimeNames()))
		}
		rt, err := container.ByName(c.Runtime)
		if err != nil {
			return nil, errf(path+".runtime", "unknown runtime %q (known: %s)", c.Runtime, joinKnown(runtimeNames()))
		}
		if c.Version != "" {
			if rt, err = container.ByNameVersion(c.Runtime, c.Version); err != nil {
				return nil, errf(path+".version", "%v", err)
			}
		}
		kind, err := parseTechnique(c.Technique)
		if err != nil {
			return nil, errf(path+".technique", "%v", err)
		}
		var imageFrom *cluster.Cluster
		if c.ImageFrom != "" && c.ImageFrom != sp.Cluster {
			if imageFrom, err = cluster.ByName(c.ImageFrom); err != nil {
				return nil, errf(path+".image_from", "unknown machine %q (known: %s)", c.ImageFrom, joinKnown(clusterNames()))
			}
		}
		label := c.Label
		if label == "" {
			label = rt.Name()
		}
		if prev, dup := seenLabels[label]; dup {
			return nil, errf(path+".label", "duplicate label %q (also configs[%d])", label, prev)
		}
		seenLabels[label] = i
		g.Configs = append(g.Configs, experiments.GridConfig{Label: label, Runtime: rt, Kind: kind, ImageFrom: imageFrom})
	}

	// Grid; axisPath is the swept list's spec path for cell-level
	// errors, and the axis headers default per grid kind.
	if err := compileGrid(g, sp.Grid); err != nil {
		return nil, err
	}
	axisPath, header, csvHeader := "grid.nodes", "Nodes", "nodes"
	if len(sp.Grid.Hybrid) > 0 {
		axisPath, header, csvHeader = "grid.hybrid", "MPI x threads", "config"
	}
	if g.AxisHeader == "" {
		g.AxisHeader = header
	}
	if g.CSVAxisHeader == "" {
		g.CSVAxisHeader = csvHeader
	}

	// Mode and allreduce.
	if g.Mode, err = parseMode(sp.Mode); err != nil {
		return nil, errf("mode", "%v", err)
	}
	if g.Allreduce, err = parseAllreduce(sp.Allreduce); err != nil {
		return nil, errf("allreduce", "%v", err)
	}

	// Report columns; none means the grid's default single group of
	// elapsed seconds.
	for i, c := range sp.Report.Columns {
		path := fmt.Sprintf("report.columns[%d]", i)
		kind, ok := columnKinds[c.Kind]
		if !ok {
			return nil, errf(path+".kind", "unknown kind %q (time, speedup, efficiency)", c.Kind)
		}
		baseline := -1
		if kind == experiments.ColTime {
			if c.Baseline != "" {
				return nil, errf(path+".baseline", "only meaningful for speedup/efficiency columns")
			}
		} else {
			if c.Baseline == "" {
				return nil, errf(path+".baseline", "required for %s columns (name a config label)", c.Kind)
			}
			if baseline, ok = seenLabels[c.Baseline]; !ok {
				return nil, errf(path+".baseline", "unknown config %q (configs: %s)", c.Baseline, joinKnown(configLabels(g)))
			}
		}
		g.Columns = append(g.Columns, experiments.GridColumn{Kind: kind, Baseline: baseline})
	}

	// Cells: the grid's own enumeration (configs outer, axis inner),
	// fingerprinted so two spellings of one cell are caught here.
	st := &Study{grid: g, cells: g.Specs()}
	seenCells := make(map[string]string)
	for i, cell := range st.cells {
		at := fmt.Sprintf("configs[%d] x %s[%d]", i/len(g.Axis), axisPath, i%len(g.Axis))
		key, err := cell.Key()
		if err != nil {
			return nil, errf(at, "%v", err)
		}
		if prev, dup := seenCells[key]; dup {
			return nil, errf(at, "duplicate cell (same fingerprint as %s)", prev)
		}
		seenCells[key] = at
		st.keys = append(st.keys, key)
	}
	return st, nil
}

// compileGrid expands the spec's grid into out's axis points.
func compileGrid(out *experiments.Grid, g GridSpec) error {
	cl := out.Cluster
	switch {
	case len(g.Nodes) > 0 && len(g.Hybrid) > 0:
		return errf("grid", "nodes and hybrid are mutually exclusive")
	case len(g.Nodes) == 0 && len(g.Hybrid) == 0:
		return errf("grid", "empty grid: set nodes or hybrid")
	case len(g.Nodes) > 0:
		if g.FixedNodes != 0 {
			return errf("grid.fixed_nodes", "only meaningful with a hybrid grid")
		}
		rpn := g.RanksPerNode
		switch {
		case rpn < 0:
			return errf("grid.ranks_per_node", "must be ≥ 1 (0 means the cluster's %d cores per node), got %d",
				cl.CoresPerNode(), rpn)
		case rpn == 0:
			rpn = cl.CoresPerNode()
		}
		threads := g.Threads
		switch {
		case threads < 0:
			return errf("grid.threads", "must be ≥ 1 (0 means 1), got %d", threads)
		case threads == 0:
			threads = 1
		}
		// Mirror the scheduler's capacity rule eagerly, so an
		// oversubscribed spec fails validate with a field path instead
		// of failing every cell at run time (and poisoning the negative
		// cache with pure spec mistakes).
		if cores := cl.CoresPerNode(); rpn*threads > cores {
			path := "grid.threads"
			if g.RanksPerNode != 0 {
				path = "grid.ranks_per_node"
			}
			return errf(path, "%d ranks/node × %d threads oversubscribe %s's %d cores per node",
				rpn, threads, cl.Name, cores)
		}
		seen := make(map[int]int)
		for i, n := range g.Nodes {
			path := fmt.Sprintf("grid.nodes[%d]", i)
			if n < 1 {
				return errf(path, "must be ≥ 1, got %d", n)
			}
			if n > cl.TotalNodes {
				return errf(path, "%d nodes exceed %s's %d", n, cl.Name, cl.TotalNodes)
			}
			if prev, dup := seen[n]; dup {
				return errf(path, "duplicate node count %d (also grid.nodes[%d])", n, prev)
			}
			seen[n] = i
			out.Axis = append(out.Axis, experiments.NodesPoint(n, rpn, threads))
		}
	default: // hybrid
		if g.RanksPerNode != 0 {
			return errf("grid.ranks_per_node", "only meaningful with a nodes grid")
		}
		if g.Threads != 0 {
			return errf("grid.threads", "only meaningful with a nodes grid")
		}
		nodes := g.FixedNodes
		switch {
		case nodes < 0:
			return errf("grid.fixed_nodes", "must be ≥ 1 (0 means the whole machine), got %d", nodes)
		case nodes == 0:
			nodes = cl.TotalNodes
		case nodes > cl.TotalNodes:
			return errf("grid.fixed_nodes", "%d nodes exceed %s's %d", nodes, cl.Name, cl.TotalNodes)
		}
		seen := make(map[HybridSpec]int)
		for i, h := range g.Hybrid {
			path := fmt.Sprintf("grid.hybrid[%d]", i)
			if h.Ranks < 1 {
				return errf(path+".ranks", "must be ≥ 1, got %d", h.Ranks)
			}
			if h.Threads < 1 {
				return errf(path+".threads", "must be ≥ 1, got %d", h.Threads)
			}
			if prev, dup := seen[h]; dup {
				return errf(path, "duplicate decomposition %dx%d (also grid.hybrid[%d])", h.Ranks, h.Threads, prev)
			}
			seen[h] = i
			// The scheduler's placement rules, checked eagerly: ranks
			// spread evenly over the nodes and never oversubscribe
			// cores.
			if h.Ranks%nodes != 0 {
				return errf(path+".ranks", "%d ranks do not divide over %d nodes", h.Ranks, nodes)
			}
			if cores := cl.CoresPerNode(); (h.Ranks/nodes)*h.Threads > cores {
				return errf(path, "%d ranks/node × %d threads oversubscribe %s's %d cores per node",
					h.Ranks/nodes, h.Threads, cl.Name, cores)
			}
			out.Axis = append(out.Axis, experiments.HybridPoint(nodes, h.Ranks, h.Threads))
		}
	}
	return nil
}

// Name returns the spec's study name.
func (st *Study) Name() string { return st.grid.Name }

// Title returns the rendered title.
func (st *Study) Title() string { return st.grid.Title }

// Cells returns the compiled cells in sweep order. The slice is owned
// by the study; callers must not mutate it.
func (st *Study) Cells() []experiments.CellSpec { return st.cells }

// Keys returns each cell's result-store content address, aligned with
// Cells.
func (st *Study) Keys() []string { return st.keys }

// Shape summarises the compiled study for validate/list output.
func (st *Study) Shape() string {
	return fmt.Sprintf("%d configs x %d grid points = %d cells on %s",
		len(st.grid.Configs), len(st.grid.Axis), len(st.cells), st.grid.Cluster.Name)
}

// Run executes the study through the shared sweep engine, inheriting
// everything Options carries: parallelism, the result store (local
// directory, registry client, or tiered), sharding, FromStore merge
// assembly, negative caching, pinning, and stats. The spec defines
// the workload and grid, so Options.Case and Options.NodePoints are
// not consulted.
func (st *Study) Run(opt experiments.Options) (*experiments.GridResult, error) {
	return st.grid.Run(opt)
}

// configLabels lists the resolved config labels in order.
func configLabels(g *experiments.Grid) []string {
	out := make([]string, len(g.Configs))
	for i, c := range g.Configs {
		out[i] = c.Label
	}
	return out
}

// clusterNames lists the preset machines for error messages.
func clusterNames() []string {
	all := cluster.All()
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = c.Name
	}
	return out
}

// runtimeNames lists the runtimes for error messages.
func runtimeNames() []string {
	all := container.Runtimes()
	out := make([]string, len(all))
	for i, rt := range all {
		out[i] = rt.Name()
	}
	return out
}

// parseTechnique resolves a build-technique display name.
func parseTechnique(s string) (container.BuildKind, error) {
	switch s {
	case "", container.SystemSpecific.String():
		return container.SystemSpecific, nil
	case container.SelfContained.String():
		return container.SelfContained, nil
	}
	return 0, fmt.Errorf("unknown technique %q (%s, %s)", s, container.SystemSpecific, container.SelfContained)
}

// parseMode resolves an execution-mode display name.
func parseMode(s string) (alya.Mode, error) {
	switch s {
	case "", alya.ModeModel.String():
		return alya.ModeModel, nil
	case alya.ModeReal.String():
		return alya.ModeReal, nil
	}
	return 0, fmt.Errorf("unknown mode %q (%s, %s)", s, alya.ModeModel, alya.ModeReal)
}

// parseAllreduce resolves an allreduce algorithm display name.
func parseAllreduce(s string) (mpi.AllreduceAlgo, error) {
	algos := []mpi.AllreduceAlgo{
		mpi.AllreduceRecursiveDoubling, mpi.AllreduceRing,
		mpi.AllreduceReduceBcast, mpi.AllreduceHierarchical,
	}
	if s == "" {
		return mpi.AllreduceRecursiveDoubling, nil
	}
	names := make([]string, len(algos))
	for i, a := range algos {
		if s == a.String() {
			return a, nil
		}
		names[i] = a.String()
	}
	return 0, fmt.Errorf("unknown allreduce %q (%s)", s, joinKnown(names))
}
