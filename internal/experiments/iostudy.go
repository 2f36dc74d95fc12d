package experiments

import (
	"fmt"
	"io"

	"repro/internal/appio"
	"repro/internal/cluster"
	"repro/internal/report"
)

// IORow is one (runtime/path, node count) measurement of the I/O study.
type IORow struct {
	// Runtime labels the configuration ("Docker (overlay)", ...).
	Runtime string
	// Path is the storage route.
	Path appio.Path
	// Nodes is the job size.
	Nodes int
	// Report is the checkpoint cost breakdown.
	Report appio.Report
}

// IOStudyResult extends the paper with its named future work: the cost
// of writing application checkpoints through each container storage
// path on Lenox.
type IOStudyResult struct {
	// Checkpoint is the workload written.
	Checkpoint appio.Checkpoint
	// Rows hold one entry per (configuration, node count).
	Rows []IORow
}

// IOStudy computes the checkpoint-write comparison on Lenox for the
// bind-mount path (bare metal, Singularity, Shifter), Docker's overlay
// filesystem, and Docker volumes. It is not a Grid: it simulates no
// cell — nine rows of closed-form I/O arithmetic — so there is no
// store, shard or merge contract to share.
func IOStudy(opt Options) (*IOStudyResult, error) {
	lenox := cluster.Lenox()
	ck := appio.Checkpoint{
		Cells:         alyaLenoxCells,
		Fields:        4, // u, v, w, p
		BytesPerValue: 8,
		FilesPerRank:  4,
	}
	model := appio.DefaultModel()
	configs := []struct {
		label string
		path  appio.Path
	}{
		{"Bare-metal / Singularity / Shifter (bind)", appio.PathBindMount},
		{"Docker (overlay fs)", appio.PathOverlay},
		{"Docker (volume)", appio.PathVolume},
	}
	out := &IOStudyResult{Checkpoint: ck}
	for _, cfg := range configs {
		for _, n := range opt.nodesOr([]int{1, 2, 4}) {
			rep, err := model.CheckpointTime(lenox, n, n*lenox.CoresPerNode(), ck, cfg.path)
			if err != nil {
				return nil, fmt.Errorf("iostudy %s %d nodes: %w", cfg.label, n, err)
			}
			out.Rows = append(out.Rows, IORow{Runtime: cfg.label, Path: cfg.path, Nodes: n, Report: rep})
		}
	}
	return out, nil
}

// alyaLenoxCells matches the Fig. 1 case mesh (288×288×240).
const alyaLenoxCells = 288 * 288 * 240

// Find returns the row for a path and node count.
func (r *IOStudyResult) Find(p appio.Path, nodes int) (*IORow, error) {
	for i := range r.Rows {
		if r.Rows[i].Path == p && r.Rows[i].Nodes == nodes {
			return &r.Rows[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: no iostudy row %v/%d", p, nodes)
}

// Render writes the study as a table.
func (r *IOStudyResult) Render(w io.Writer) {
	t := report.NewTable(
		fmt.Sprintf("I/O extension: one %v checkpoint through each container storage path (Lenox)",
			r.Checkpoint.Size()),
		"Configuration", "Nodes", "Write [s]", "Metadata [s]", "Stage-out [s]", "Total [s]")
	for _, row := range r.Rows {
		t.AddRow(row.Runtime, row.Nodes,
			report.Seconds(row.Report.WriteTime),
			report.Seconds(row.Report.MetadataTime),
			report.Seconds(row.Report.StageOutTime),
			report.Seconds(row.Report.Total()))
	}
	t.Render(w)
}
