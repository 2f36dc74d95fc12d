package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/alya"
	"repro/internal/experiments"
	"repro/internal/resultdb"
)

// specPath locates the shipped example specs from this package.
const (
	fig1SpecPath      = "../../examples/scenarios/fig1.json"
	fig2SpecPath      = "../../examples/scenarios/fig2.json"
	fig2QuickSpecPath = "../../examples/scenarios/fig2-quick.json"
)

// assertCellsMatch compares a compiled study's cells against a
// hand-coded enumeration, label for label and fingerprint for
// fingerprint — the property that makes scenario runs share stores,
// shards, and caches with the built-in studies.
func assertCellsMatch(t *testing.T, st *Study, want []experiments.CellSpec) {
	t.Helper()
	got := st.Cells()
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Errorf("cell %d label = %q, want %q", i, got[i].Label, want[i].Label)
		}
		wk, err := want[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		if st.Keys()[i] != wk {
			t.Errorf("cell %d (%s): fingerprint differs from the built-in study", i, got[i].Label)
		}
	}
}

// TestFig1SpecMatchesBuiltinCells pins the shipped fig1.json to the
// hand-coded Fig. 1 enumeration at paper scale, without simulating.
func TestFig1SpecMatchesBuiltinCells(t *testing.T) {
	st, err := Load(fig1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	assertCellsMatch(t, st, experiments.Fig1Specs(experiments.Options{}))
}

// TestFig2SpecMatchesBuiltinCells pins the shipped fig2.json to the
// hand-coded Fig. 2 enumeration at paper scale.
func TestFig2SpecMatchesBuiltinCells(t *testing.T) {
	st, err := Load(fig2SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	assertCellsMatch(t, st, experiments.Fig2Specs(experiments.Options{}))
}

// TestFig2QuickSpecMatchesQuickCells pins fig2-quick.json to the
// CLI's -quick fig2 configuration (SimSteps 1, nodes 2/4/8/16).
func TestFig2QuickSpecMatchesQuickCells(t *testing.T) {
	st, err := Load(fig2QuickSpecPath)
	if err != nil {
		t.Fatal(err)
	}
	c := alya.ArteryCFDCTEPower()
	c.SimSteps = 1
	assertCellsMatch(t, st, experiments.Fig2Specs(experiments.Options{
		Case: c, NodePoints: []int{2, 4, 8, 16},
	}))
}

// reduceCase shrinks a spec's workload the way the experiments tests
// shrink the built-in figures, so full-output comparisons stay fast.
func reduceCase(sp *Spec) {
	sp.Case.SimSteps = 1
	sp.Case.ModelCGIters = 30
}

// reducedLenox mirrors the experiments tests' reduced Fig. 1 case.
func reducedLenox() alya.Case {
	c := alya.ArteryCFDLenox()
	c.SimSteps = 1
	c.ModelCGIters = 30
	return c
}

// reducedCTEPower mirrors the reduced Fig. 2 case.
func reducedCTEPower() alya.Case {
	c := alya.ArteryCFDCTEPower()
	c.SimSteps = 1
	c.ModelCGIters = 30
	return c
}

// TestFig1OutputByteIdentical runs the shipped fig1.json (workload
// reduced identically on both sides) and compares table and CSV bytes
// against the hand-coded study.
func TestFig1OutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 sweep skipped in -short")
	}
	sp, err := ParseSpecFile(fig1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	reduceCase(&sp)
	st, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(experiments.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := experiments.Fig1(experiments.Options{Parallelism: 4, Case: reducedLenox()})
	if err != nil {
		t.Fatal(err)
	}

	var got, want bytes.Buffer
	res.Render(&got)
	builtin.Render(&want)
	if got.String() != want.String() {
		t.Fatalf("scenario fig1 table differs:\n--- scenario ---\n%s\n--- builtin ---\n%s", got.String(), want.String())
	}
	got.Reset()
	want.Reset()
	res.CSV(&got)
	builtin.CSV(&want)
	if got.String() != want.String() {
		t.Fatalf("scenario fig1 CSV differs:\n--- scenario ---\n%s\n--- builtin ---\n%s", got.String(), want.String())
	}
}

// TestFig2WarmShardMergeByteIdentical is the acceptance story on the
// shipped fig2.json (grid and workload reduced identically on both
// sides): a cold scenario run, a warm rerun, and a two-shard populate
// plus store-only merge all render byte-identically to the hand-coded
// Fig. 2 — and the warm paths simulate nothing.
func TestFig2WarmShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 sweep skipped in -short")
	}
	sp, err := ParseSpecFile(fig2SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	reduceCase(&sp)
	sp.Grid.Nodes = []int{2, 4}
	st, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}

	builtin, err := experiments.Fig2(experiments.Options{
		Parallelism: 4, Case: reducedCTEPower(), NodePoints: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	builtin.Render(&want)

	render := func(r *experiments.GridResult) string {
		var b bytes.Buffer
		r.Render(&b)
		return b.String()
	}

	// Cold into a store.
	dir := t.TempDir()
	store, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := &experiments.SweepStats{}
	cold, err := st.Run(experiments.Options{Parallelism: 4, Store: store, Stats: coldStats})
	if err != nil {
		t.Fatal(err)
	}
	if render(cold) != want.String() {
		t.Fatalf("cold scenario differs from builtin:\n%s\n---\n%s", render(cold), want.String())
	}
	if coldStats.Computed.Load() != 6 {
		t.Fatalf("cold run computed %d cells, want 6", coldStats.Computed.Load())
	}
	store.Close()

	// Warm from a fresh open: zero simulations, same bytes.
	store, err = resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmStats := &experiments.SweepStats{}
	warm, err := st.Run(experiments.Options{Parallelism: 4, Store: store, Stats: warmStats})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Computed.Load() != 0 || warmStats.Hits.Load() != 6 {
		t.Fatalf("warm run: %d computed, %d hits", warmStats.Computed.Load(), warmStats.Hits.Load())
	}
	if render(warm) != want.String() {
		t.Fatal("warm scenario differs from builtin")
	}
	store.Close()

	// Two shards populate a fresh store; a store-only merge assembles.
	shardDir := t.TempDir()
	for k := 1; k <= 2; k++ {
		s, err := resultdb.Open(shardDir)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.Run(experiments.Options{
			Parallelism: 4, Store: s, Shard: resultdb.Shard{Index: k, Count: 2},
		})
		var miss *experiments.MissingCellsError
		if err != nil && !errors.As(err, &miss) {
			t.Fatalf("shard %d: %v", k, err)
		}
		s.Close()
	}
	s, err := resultdb.Open(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mergeStats := &experiments.SweepStats{}
	merged, err := st.Run(experiments.Options{
		Parallelism: 4, Store: s, FromStore: true, Stats: mergeStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mergeStats.Computed.Load() != 0 {
		t.Fatalf("merge simulated %d cells", mergeStats.Computed.Load())
	}
	if render(merged) != want.String() {
		t.Fatal("sharded merge differs from builtin")
	}

	// Cross-direction: the hand-coded study replays the scenario's
	// cells — one store serves both expressions of the figure.
	crossStats := &experiments.SweepStats{}
	cross, err := experiments.Fig2(experiments.Options{
		Parallelism: 4, Case: reducedCTEPower(), NodePoints: []int{2, 4},
		Store: s, FromStore: true, Stats: crossStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if crossStats.Computed.Load() != 0 {
		t.Fatal("builtin merge from scenario-populated store simulated cells")
	}
	var crossBuf bytes.Buffer
	cross.Render(&crossBuf)
	if crossBuf.String() != want.String() {
		t.Fatal("builtin merge from scenario store differs")
	}
}

// TestSpeedupEfficiencyColumns exercises the report layout a custom
// study would use: a baseline-referenced speedup column (baseline
// itself = 1.00) and an efficiency column, in table and CSV.
func TestSpeedupEfficiencyColumns(t *testing.T) {
	sp := Spec{
		Name:    "overhead",
		Title:   "Container overhead on Lenox",
		Cluster: "Lenox",
		Case:    CaseSpec{Name: "quick-cfd"},
		Configs: []ConfigSpec{
			{Runtime: "Bare-metal"},
			{Runtime: "Singularity"},
		},
		Grid: GridSpec{Nodes: []int{1, 2}, RanksPerNode: 4},
		Report: ReportSpec{
			Columns: []ColumnSpec{
				{Kind: "time"},
				{Kind: "speedup", Baseline: "Bare-metal"},
				{Kind: "efficiency", Baseline: "Bare-metal"},
			},
			Chart: true,
		},
	}
	st, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(experiments.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	var table bytes.Buffer
	res.Render(&table)
	out := table.String()
	for _, wantStr := range []string{
		"Container overhead on Lenox",
		"Bare-metal [s]", "Singularity [s]",
		"Bare-metal speedup", "Singularity speedup",
		"Bare-metal eff", "Singularity eff",
	} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("table missing %q:\n%s", wantStr, out)
		}
	}
	// The chart rides behind the table when requested.
	if !strings.Contains(out, "seconds") {
		t.Errorf("chart missing from output:\n%s", out)
	}
	// The baseline's speedup against itself is exactly 1.
	if !strings.Contains(out, "1.00") {
		t.Errorf("baseline speedup not 1.00:\n%s", out)
	}

	var csv bytes.Buffer
	res.CSV(&csv)
	head := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, wantStr := range []string{"nodes", "Bare-metal", "Bare-metal_speedup", "Singularity_efficiency"} {
		if !strings.Contains(head, wantStr) {
			t.Errorf("CSV header missing %q: %s", wantStr, head)
		}
	}
}
