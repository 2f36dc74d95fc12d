package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const specPath = "../../BENCHMARK.json"

type metrics map[string]float64

// testRun is one run as `benchmark -out` writes it, with only the
// fields the comparer reads.
func testRun(workload string, traced bool, m metrics, digests map[string]string) map[string]any {
	ms := map[string]any{}
	for name, v := range m {
		ms[name] = map[string]any{"value": v, "unit": "x"}
	}
	return map[string]any{
		"workload": workload, "traced": traced, "correct": true, "fail_frac": 0.0,
		"metrics": ms, "digests": digests,
	}
}

// baseline is a two-workload result file: sim_cold untraced and traced,
// wire_ops (seed-dependent, no kernel) traced.
func baseline() map[string]any {
	return map[string]any{
		"provenance": map[string]any{"seed": 1, "smoke": false},
		"runs": []any{
			testRun("sim_cold", false, metrics{"wall_s": 10, "cells_per_s": 5}, map[string]string{"figures": "aaaa"}),
			testRun("sim_cold", true, metrics{
				"vtime.switches": 9175016, "vtime.ns_per_switch_640p": 300, "vtime.ns_per_switch_3072p": 0,
				"mpi.us_per_allreduce_p8": 40, "core.cell_ms_r80": 150,
			}, map[string]string{"figures": "aaaa", "saved_results": "bbbb"}),
			testRun("wire_ops", true, metrics{"vtime.switches": 0, "registry.claim_us_p50": 90},
				map[string]string{"saved_results": "cccc"}),
		},
	}
}

func writeFile(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOf returns run i of a baseline() for the case to edit.
func runOf(f map[string]any, i int) map[string]any { return f["runs"].([]any)[i].(map[string]any) }

func setMetric(f map[string]any, i int, name string, v float64) {
	runOf(f, i)["metrics"].(map[string]any)[name] = map[string]any{"value": v}
}

// TestCompareFlagsRegressions drives compare over edited copies of one
// small result file: what fails, what is only reported, and that every
// failure names its workload and metric.
func TestCompareFlagsRegressions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(f map[string]any)
		failed int
		want   []string // substrings of the output
	}{
		{"identical", func(map[string]any) {}, 0, []string{"3 runs compared, 0 checks failed"}},
		{"incorrect output", func(f map[string]any) { runOf(f, 0)["correct"] = false }, 1,
			[]string{"FAIL sim_cold (traced=false): correct is false"}},
		{"fail_frac rose", func(f map[string]any) { runOf(f, 2)["fail_frac"] = 0.01 }, 1,
			[]string{"FAIL wire_ops (traced=true): fail_frac rose 0 -> 0.01"}},
		{"figure digest changed", func(f map[string]any) {
			runOf(f, 1)["digests"] = map[string]string{"figures": "ffff", "saved_results": "bbbb"}
		}, 1, []string{"FAIL sim_cold (traced=true): digests.figures differs"}},
		{"exact counter changed", func(f map[string]any) { setMetric(f, 1, "vtime.switches", 9175017) }, 1,
			[]string{"FAIL sim_cold (traced=true): vtime.switches differs: 9175016 -> 9175017"}},
		{"ns_per_switch x3", func(f map[string]any) { setMetric(f, 1, "vtime.ns_per_switch_640p", 900) }, 1,
			[]string{"FAIL sim_cold (traced=true): vtime.ns_per_switch_640p worse by +200%, past the +150% threshold"}},
		{"ns_per_switch x2 is inside the threshold", func(f map[string]any) { setMetric(f, 1, "vtime.ns_per_switch_640p", 600) }, 0,
			[]string{"vtime.ns_per_switch_640p", "+100.0% worse"}},
		{"ungated per-layer metric x10", func(f map[string]any) { setMetric(f, 1, "core.cell_ms_r80", 1500) }, 0, nil},
		{"0 against a value is not measured", func(f map[string]any) { setMetric(f, 1, "vtime.ns_per_switch_3072p", 550) }, 0,
			[]string{"vtime.ns_per_switch_3072p", "not measured on one side"}},
		{"metric on one side only", func(f map[string]any) {
			delete(runOf(f, 1)["metrics"].(map[string]any), "mpi.us_per_allreduce_p8")
		}, 0, []string{"mpi.us_per_allreduce_p8", "in one file only"}},
		{"wall_s +40% advises", func(f map[string]any) { setMetric(f, 0, "wall_s", 14) }, 0,
			[]string{"wall_s", "+40.0% worse  (bound 25%)  past its bound: advisory"}},
		{"cells_per_s is better when higher", func(f map[string]any) { setMetric(f, 0, "cells_per_s", 2.5) }, 0,
			[]string{"cells_per_s", "+100.0% worse  (bound 25%)  past its bound: advisory"}},
		{"traced and untraced match separately", func(f map[string]any) {
			// Only the traced sim_cold run changes; were runs matched by
			// workload alone, the untraced one would meet its counters.
			f["runs"] = []any{runOf(f, 1), runOf(f, 0), runOf(f, 2)}
			setMetric(f, 0, "vtime.switches", 1)
		}, 1, []string{"FAIL sim_cold (traced=true): vtime.switches differs"}},
		{"a run on one side only", func(f map[string]any) { f["runs"] = f["runs"].([]any)[:2] }, 0,
			[]string{"wire_ops (traced=true): only in the old file", "2 runs compared"}},
		{"seed-dependent digest under another seed", func(f map[string]any) {
			f["provenance"] = map[string]any{"seed": 2, "smoke": false}
			runOf(f, 2)["digests"] = map[string]string{"saved_results": "dddd"}
		}, 0, nil},
		{"seed-independent digest under another seed", func(f map[string]any) {
			f["provenance"] = map[string]any{"seed": 2, "smoke": false}
			runOf(f, 0)["digests"] = map[string]string{"figures": "ffff"}
		}, 1, []string{"FAIL sim_cold (traced=false): digests.figures differs"}},
	} {
		newF := baseline()
		tc.edit(newF)
		var out strings.Builder
		failed, err := runCompare(&out, specPath, []string{writeFile(t, baseline()), writeFile(t, newF)})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if failed != tc.failed {
			t.Errorf("%s: %d checks failed, want %d:\n%s", tc.name, failed, tc.failed, out.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, out.String())
			}
		}
	}
}

// TestCompareUsage: malformed invocations and files that are not
// benchmark result files are errors (exit 2), never a silent pass.
func TestCompareUsage(t *testing.T) {
	good := writeFile(t, baseline())
	smoke := baseline()
	smoke["provenance"] = map[string]any{"seed": 1, "smoke": true}
	for _, args := range [][]string{
		{},
		{good},
		{good, good, "extra"},
		{"-threshold", "-1", good, good},
		{"-floor", "200", good, good},
		{good, filepath.Join(t.TempDir(), "missing.json")},
		{good, writeFile(t, map[string]any{"benchmarks": []any{}})}, // the go test -bench artifact shape
		{good, writeFile(t, smoke)},
	} {
		if _, err := runCompare(io.Discard, specPath, args); err == nil {
			t.Errorf("args %q accepted", args)
		}
	}
	if _, err := runCompare(io.Discard, "missing-spec.json", []string{good, good}); err == nil {
		t.Error("a missing BENCHMARK.json was accepted")
	}
	if failed, err := runCompare(io.Discard, specPath, []string{"-threshold", "3", good, good}); err != nil || failed != 0 {
		t.Errorf("-threshold 3: %d failed, %v", failed, err)
	}
}
