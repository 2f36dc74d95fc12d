// Package scenario turns user-authored JSON study specs into
// experiments.Grid values — the same type the built-in figures are
// values of. A spec names a cluster, a workload case, a set of runtime
// configurations, and a grid of node/rank/thread points, plus a report
// layout; Compile resolves every name against the model and fills a
// Grid, so enumeration, the bounded-worker Sweep (parallelism, the
// result store, sharding, merge, negative caching, pinning) and
// table/CSV/chart rendering are the figures' own code, not a copy of
// it. This package decodes and validates; it renders nothing.
//
// Specs are validated eagerly with field-path errors ("configs[2]
// .runtime: unknown runtime ..."), so a typo surfaces as one precise
// message before any cell simulates, and unknown JSON fields are
// rejected rather than ignored.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Spec is the JSON form of a user-authored study: everything the
// built-in figures set in Go, as data.
type Spec struct {
	// Name labels the study in output footers, cell labels, and
	// errors ("fig2"). Required.
	Name string `json:"name"`
	// Title is printed above the rendered table; defaults to Name.
	Title string `json:"title,omitempty"`
	// Cluster names the target machine (cluster.ByName). Required.
	Cluster string `json:"cluster"`
	// Case selects and optionally resizes the workload.
	Case CaseSpec `json:"case"`
	// Configs are the compared runtime configurations — the table's
	// column groups. At least one is required.
	Configs []ConfigSpec `json:"configs"`
	// Grid is the swept axis: node counts or hybrid ranks×threads
	// decompositions.
	Grid GridSpec `json:"grid"`
	// Mode selects the execution mode: "model" (default) or "real".
	Mode string `json:"mode,omitempty"`
	// Allreduce selects the collective algorithm by its display name:
	// "recursive-doubling" (default), "ring", "reduce+bcast", or
	// "hierarchical".
	Allreduce string `json:"allreduce,omitempty"`
	// Report shapes the rendered output.
	Report ReportSpec `json:"report,omitempty"`
}

// CaseSpec selects a named workload case and optionally resizes it.
type CaseSpec struct {
	// Name is one of alya.CaseNames(). Required.
	Name string `json:"name"`
	// Steps overrides the reported physical step count (0 keeps the
	// case's own).
	Steps int `json:"steps,omitempty"`
	// SimSteps overrides how many steps actually simulate — the same
	// knob the CLI's -quick uses (0 keeps the case's own).
	SimSteps int `json:"sim_steps,omitempty"`
	// ModelCGIters overrides the fixed CG iteration count of
	// ModeModel (0 keeps the case's own).
	ModelCGIters int `json:"model_cg_iters,omitempty"`
}

// ConfigSpec is one compared configuration: a runtime at a version,
// an image-building technique, and optionally a foreign build cluster.
type ConfigSpec struct {
	// Label names the configuration in headers and cell labels;
	// defaults to the runtime name.
	Label string `json:"label,omitempty"`
	// Runtime is the display name: "Bare-metal", "Docker",
	// "Singularity", or "Shifter". Required.
	Runtime string `json:"runtime"`
	// Version pins the runtime version (part of the cell identity);
	// empty keeps the study default.
	Version string `json:"version,omitempty"`
	// Technique is the image-building technique: "system-specific"
	// (default) or "self-contained". Ignored for bare metal.
	Technique string `json:"technique,omitempty"`
	// ImageFrom, when set, builds the image for that cluster instead
	// of the study cluster — the portability study's cross-cluster
	// runs. Naming the study cluster itself is normalised to unset.
	ImageFrom string `json:"image_from,omitempty"`
}

// GridSpec is the swept axis. Exactly one of Nodes or Hybrid must be
// set.
type GridSpec struct {
	// Nodes sweeps node counts; ranks default to nodes ×
	// RanksPerNode and threads to Threads (fig2/fig3 shape).
	Nodes []int `json:"nodes,omitempty"`
	// RanksPerNode overrides ranks per node for a nodes grid
	// (default: the cluster's cores per node).
	RanksPerNode int `json:"ranks_per_node,omitempty"`
	// Threads fixes OpenMP threads per rank for a nodes grid
	// (default 1).
	Threads int `json:"threads,omitempty"`
	// Hybrid sweeps ranks×threads decompositions at a fixed node
	// count (fig1 shape).
	Hybrid []HybridSpec `json:"hybrid,omitempty"`
	// FixedNodes is the node count of a hybrid grid (default: the
	// whole machine).
	FixedNodes int `json:"fixed_nodes,omitempty"`
}

// HybridSpec is one ranks×threads decomposition.
type HybridSpec struct {
	Ranks   int `json:"ranks"`
	Threads int `json:"threads"`
}

// ReportSpec shapes the rendered table, CSV, and chart.
type ReportSpec struct {
	// AxisHeader heads the axis column (default: "Nodes" for a nodes
	// grid, "MPI x threads" for a hybrid one).
	AxisHeader string `json:"axis_header,omitempty"`
	// CSVAxisHeader heads the axis column in CSV output (default:
	// "nodes" / "config").
	CSVAxisHeader string `json:"csv_axis_header,omitempty"`
	// ShowFabric appends each configuration's network path to its
	// time-column header, as Fig. 2 does.
	ShowFabric bool `json:"show_fabric,omitempty"`
	// Columns are the rendered column groups, one sub-column per
	// config each; default is a single group of elapsed seconds.
	Columns []ColumnSpec `json:"columns,omitempty"`
	// Chart additionally renders the elapsed-time curves as an ASCII
	// chart after the table.
	Chart bool `json:"chart,omitempty"`
}

// ColumnSpec is one rendered column group.
type ColumnSpec struct {
	// Kind is "time" (elapsed seconds), "speedup" (baseline's time
	// over each config's at the same grid point), or "efficiency"
	// (speedup vs the baseline's first point, divided by the ideal
	// axis ratio — parallel efficiency against the baseline).
	Kind string `json:"kind"`
	// Baseline names the reference config by label; required for
	// speedup and efficiency, rejected for time.
	Baseline string `json:"baseline,omitempty"`
}

// FieldError locates a spec mistake by JSON field path, so a user
// editing a scenario file is pointed at the exact field to fix.
type FieldError struct {
	// Path is the JSON path, e.g. "configs[2].runtime".
	Path string
	// Msg says what is wrong with it.
	Msg string
}

// Error implements error.
func (e *FieldError) Error() string { return e.Path + ": " + e.Msg }

// errf builds a FieldError at a path.
func errf(path, format string, args ...any) *FieldError {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// ParseSpec decodes one spec from r without compiling it. Unknown
// fields are errors — a misspelled knob must not silently revert to a
// default. name labels decode errors (usually the file path).
func ParseSpec(r io.Reader, name string) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	// Anything after the spec object is a concatenation mistake, not
	// a second study.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario %s: trailing data after the spec object", name)
	}
	return sp, nil
}

// ParseSpecFile reads and decodes one spec file without compiling it.
func ParseSpecFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return ParseSpec(f, path)
}

// Load reads, decodes, and compiles one spec file: the one-call form
// the CLI and facade use. Compile errors are prefixed with the file
// path so `hpcstudy validate` output is self-locating.
func Load(path string) (*Study, error) {
	sp, err := ParseSpecFile(path)
	if err != nil {
		return nil, err
	}
	st, err := sp.Compile()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	return st, nil
}

// Parse decodes and compiles one spec from a reader.
func Parse(r io.Reader, name string) (*Study, error) {
	sp, err := ParseSpec(r, name)
	if err != nil {
		return nil, err
	}
	st, err := sp.Compile()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	return st, nil
}

// joinKnown renders a known-names list for error messages.
func joinKnown(names []string) string { return strings.Join(names, ", ") }
