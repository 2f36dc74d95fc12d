package scenario

import (
	"strings"
	"testing"
)

// validSpec is a minimal spec every mutation test starts from.
func validSpec() Spec {
	return Spec{
		Name:    "demo",
		Cluster: "Lenox",
		Case:    CaseSpec{Name: "quick-cfd"},
		Configs: []ConfigSpec{
			{Runtime: "Bare-metal"},
			{Label: "Sing", Runtime: "Singularity"},
		},
		Grid: GridSpec{Nodes: []int{1, 2}, RanksPerNode: 4},
	}
}

func TestCompileValidSpecDefaults(t *testing.T) {
	st, err := validSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if st.Title() != "demo" {
		t.Fatalf("title default = %q, want the name", st.Title())
	}
	if got := configLabels(st.grid); got[0] != "Bare-metal" || got[1] != "Sing" {
		t.Fatalf("labels = %v (first should default to the runtime name)", got)
	}
	if len(st.Cells()) != 4 || len(st.Keys()) != 4 {
		t.Fatalf("%d cells, %d keys, want 4", len(st.Cells()), len(st.Keys()))
	}
	if got := st.Cells()[1].Label; got != "demo Bare-metal 2 nodes" {
		t.Fatalf("cell label = %q", got)
	}
	if st.grid.AxisHeader != "Nodes" || st.grid.CSVAxisHeader != "nodes" {
		t.Fatalf("axis headers = %q/%q", st.grid.AxisHeader, st.grid.CSVAxisHeader)
	}
}

// TestCompileFieldErrors is the validation contract: every spec
// mistake is rejected with a *FieldError naming the offending field
// path — never a panic, never a generic message.
func TestCompileFieldErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		path   string
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, "name"},
		{"missing cluster", func(s *Spec) { s.Cluster = "" }, "cluster"},
		{"unknown cluster", func(s *Spec) { s.Cluster = "Lennox" }, "cluster"},
		{"missing case", func(s *Spec) { s.Case.Name = "" }, "case.name"},
		{"unknown case", func(s *Spec) { s.Case.Name = "artery-cfd-lennox" }, "case.name"},
		{"negative sim steps", func(s *Spec) { s.Case.SimSteps = -1 }, "case.sim_steps"},
		{"inconsistent case", func(s *Spec) { s.Case.Steps = 2; s.Case.SimSteps = 9 }, "case"},
		{"no configs", func(s *Spec) { s.Configs = nil }, "configs"},
		{"missing runtime", func(s *Spec) { s.Configs[1].Runtime = "" }, "configs[1].runtime"},
		{"unknown runtime", func(s *Spec) { s.Configs[1].Runtime = "Podman" }, "configs[1].runtime"},
		{"bare-metal version", func(s *Spec) { s.Configs[0].Version = "2" }, "configs[0].version"},
		{"unknown technique", func(s *Spec) { s.Configs[1].Technique = "static" }, "configs[1].technique"},
		{"unknown image source", func(s *Spec) { s.Configs[1].ImageFrom = "Lennox" }, "configs[1].image_from"},
		{"duplicate labels", func(s *Spec) { s.Configs[1].Label = "Bare-metal" }, "configs[1].label"},
		{"duplicate cells", func(s *Spec) {
			// Two distinctly labelled but physically identical configs
			// enumerate the same fingerprints.
			s.Configs[1] = ConfigSpec{Label: "also bare", Runtime: "Bare-metal"}
		}, "configs[1] x grid.nodes[0]"},
		{"empty grid", func(s *Spec) { s.Grid = GridSpec{} }, "grid"},
		{"both grids", func(s *Spec) { s.Grid.Hybrid = []HybridSpec{{8, 14}} }, "grid"},
		{"zero nodes", func(s *Spec) { s.Grid.Nodes[0] = 0 }, "grid.nodes[0]"},
		{"oversized nodes", func(s *Spec) { s.Grid.Nodes[1] = 999 }, "grid.nodes[1]"},
		{"duplicate nodes", func(s *Spec) { s.Grid.Nodes = []int{2, 2} }, "grid.nodes[1]"},
		{"fixed_nodes on nodes grid", func(s *Spec) { s.Grid.FixedNodes = 4 }, "grid.fixed_nodes"},
		{"negative ranks per node", func(s *Spec) { s.Grid.RanksPerNode = -4 }, "grid.ranks_per_node"},
		{"oversubscribed ranks per node", func(s *Spec) { s.Grid.RanksPerNode = 4096 }, "grid.ranks_per_node"},
		{"oversubscribed threads", func(s *Spec) {
			// Default ranks/node = all cores, so any threads > 1 spills.
			s.Grid.RanksPerNode = 0
			s.Grid.Threads = 2
		}, "grid.threads"},
		{"hybrid ranks not dividing", func(s *Spec) {
			// Lenox has 4 nodes; 3 ranks cannot spread evenly.
			s.Grid = GridSpec{Hybrid: []HybridSpec{{Ranks: 3, Threads: 1}}}
		}, "grid.hybrid[0].ranks"},
		{"oversubscribed hybrid", func(s *Spec) {
			// 112 ranks / 4 nodes = 28/node × 4 threads > 28 cores.
			s.Grid = GridSpec{Hybrid: []HybridSpec{{Ranks: 112, Threads: 4}}}
		}, "grid.hybrid[0]"},
		{"hybrid zero threads", func(s *Spec) {
			s.Grid = GridSpec{Hybrid: []HybridSpec{{Ranks: 8}}}
		}, "grid.hybrid[0].threads"},
		{"hybrid zero ranks", func(s *Spec) {
			s.Grid = GridSpec{Hybrid: []HybridSpec{{Threads: 2}}}
		}, "grid.hybrid[0].ranks"},
		{"duplicate hybrid", func(s *Spec) {
			s.Grid = GridSpec{Hybrid: []HybridSpec{{8, 14}, {8, 14}}}
		}, "grid.hybrid[1]"},
		{"threads on hybrid grid", func(s *Spec) {
			s.Grid = GridSpec{Hybrid: []HybridSpec{{8, 14}}, Threads: 2}
		}, "grid.threads"},
		{"oversized fixed_nodes", func(s *Spec) {
			s.Grid = GridSpec{Hybrid: []HybridSpec{{8, 14}}, FixedNodes: 9}
		}, "grid.fixed_nodes"},
		{"unknown mode", func(s *Spec) { s.Mode = "fast" }, "mode"},
		{"unknown allreduce", func(s *Spec) { s.Allreduce = "butterfly" }, "allreduce"},
		{"unknown column kind", func(s *Spec) {
			s.Report.Columns = []ColumnSpec{{Kind: "latency"}}
		}, "report.columns[0].kind"},
		{"baseline on time column", func(s *Spec) {
			s.Report.Columns = []ColumnSpec{{Kind: "time", Baseline: "Sing"}}
		}, "report.columns[0].baseline"},
		{"speedup without baseline", func(s *Spec) {
			s.Report.Columns = []ColumnSpec{{Kind: "speedup"}}
		}, "report.columns[0].baseline"},
		{"absent baseline config", func(s *Spec) {
			s.Report.Columns = []ColumnSpec{{Kind: "time"}, {Kind: "speedup", Baseline: "Docker"}}
		}, "report.columns[1].baseline"},
		{"absent efficiency baseline", func(s *Spec) {
			s.Report.Columns = []ColumnSpec{{Kind: "efficiency", Baseline: "nope"}}
		}, "report.columns[0].baseline"},
	}
	for _, tc := range cases {
		sp := validSpec()
		tc.mutate(&sp)
		_, err := sp.Compile()
		if err == nil {
			t.Errorf("%s: compiled", tc.name)
			continue
		}
		fe, ok := err.(*FieldError)
		if !ok {
			t.Errorf("%s: error is %T (%v), want *FieldError", tc.name, err, err)
			continue
		}
		if !strings.HasPrefix(fe.Path, tc.path) {
			t.Errorf("%s: error path %q, want prefix %q (%v)", tc.name, fe.Path, tc.path, err)
		}
	}
}

// TestParseRejectsUnknownFields asserts a misspelled knob is an
// error, not a silently applied default.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"name": "x", "clutser": "Lenox"}`), "bad.json")
	if err == nil || !strings.Contains(err.Error(), "clutser") {
		t.Fatalf("unknown field accepted: %v", err)
	}
	_, err = ParseSpec(strings.NewReader(`{"name": "x"} {"name": "y"}`), "two.json")
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing data accepted: %v", err)
	}
}

// TestLoadMissingFile asserts a readable error for a bad path.
func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("no/such/spec.json"); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestImageFromSelfNormalises asserts naming the study cluster as the
// image source is identical to omitting it, so the fingerprint
// matches a spec that leaves the default.
func TestImageFromSelfNormalises(t *testing.T) {
	a := validSpec()
	b := validSpec()
	b.Configs[1].ImageFrom = "Lenox"
	sa, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa.Keys() {
		if sa.Keys()[i] != sb.Keys()[i] {
			t.Fatalf("cell %d fingerprint changed by self image_from", i)
		}
	}
}
