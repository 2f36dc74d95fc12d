package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/units"
)

// SolutionRow is one runtime's deployment metrics on Lenox.
type SolutionRow struct {
	// Runtime is the technology name.
	Runtime string
	// Format is the executable image format.
	Format string
	// ImageSize is the staged image footprint.
	ImageSize units.ByteSize
	// WireSize is the registry traffic for a 4-node deployment.
	WireSize units.ByteSize
	// DeployByNodes maps node count → total deployment overhead.
	DeployByNodes map[int]units.Seconds
	// LaunchPerRank is the per-rank container start cost.
	LaunchPerRank units.Seconds
}

// SolutionsResult holds the §B.1 containerization-solutions comparison:
// deployment overhead and image size per runtime (execution time is
// Fig. 1).
type SolutionsResult struct {
	// Nodes are the deployment sizes compared.
	Nodes []int
	// Rows hold one entry per runtime, in study order.
	Rows []SolutionRow
}

// Solutions reproduces the deployment-overhead and image-size
// comparison of Docker, Singularity, and Shifter on Lenox. It is not a
// Grid: it simulates no cell — three rows of closed-form deployment
// arithmetic — so there is no store, shard or merge contract to share,
// and a plain loop in study order is the whole engine.
func Solutions(opt Options) (*SolutionsResult, error) {
	lenox := cluster.Lenox()
	nodes := opt.nodesOr([]int{1, 2, 4})
	out := &SolutionsResult{Nodes: nodes}
	for _, rt := range container.Runtimes() {
		if _, bare := rt.(container.BareMetal); bare {
			continue
		}
		img, err := core.BuildImageFor(rt, lenox, container.SystemSpecific)
		if err != nil {
			return nil, fmt.Errorf("solutions %s: %w", rt.Name(), err)
		}
		profile, err := rt.ExecProfile(lenox, img)
		if err != nil {
			return nil, fmt.Errorf("solutions %s: %w", rt.Name(), err)
		}
		row := SolutionRow{
			Runtime:       rt.Name(),
			Format:        img.Format.String(),
			DeployByNodes: make(map[int]units.Seconds),
			LaunchPerRank: profile.LaunchPerRank,
		}
		for _, n := range nodes {
			rep, err := rt.Deploy(lenox, img, n)
			if err != nil {
				return nil, fmt.Errorf("solutions %s %d nodes: %w", rt.Name(), n, err)
			}
			row.DeployByNodes[n] = rep.Total()
			if n == nodes[len(nodes)-1] {
				row.ImageSize = rep.StoredSize / units.ByteSize(n) // per-node footprint
				if rt.Name() != "Docker" {
					row.ImageSize = rep.StoredSize // single shared file
				}
				row.WireSize = rep.WireSize
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RowByRuntime finds a runtime's row.
func (s *SolutionsResult) RowByRuntime(name string) (*SolutionRow, error) {
	for i := range s.Rows {
		if s.Rows[i].Runtime == name {
			return &s.Rows[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: solutions has no runtime %q", name)
}

// Render writes the comparison table.
func (s *SolutionsResult) Render(w io.Writer) {
	headers := []string{"Runtime", "Format", "Image size", "Registry traffic"}
	for _, n := range s.Nodes {
		headers = append(headers, fmt.Sprintf("Deploy %dn [s]", n))
	}
	headers = append(headers, "Start/rank [ms]")
	t := report.NewTable("Containerization solutions on Lenox: image size and deployment overhead", headers...)
	for _, row := range s.Rows {
		cells := []interface{}{row.Runtime, row.Format, row.ImageSize.String(), row.WireSize.String()}
		for _, n := range s.Nodes {
			cells = append(cells, report.Seconds(row.DeployByNodes[n]))
		}
		cells = append(cells, fmt.Sprintf("%.0f", float64(row.LaunchPerRank)*1e3))
		t.AddRow(cells...)
	}
	t.Render(w)
}
