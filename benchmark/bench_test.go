package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecWithinDriverLimits holds the tables to the limits the driver
// refuses a BENCHMARK.json for.
func TestSpecWithinDriverLimits(t *testing.T) {
	seen := make(map[string]bool)
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q: want [A-Za-z0-9_.-]+, at most 64, starting with a letter or digit", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.name, len(w.why))
		}
		if w.passes < 1 || w.impl == nil {
			t.Errorf("workload %s: no passes or no implementation", w.name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		name("metric", m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.name, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !seen[m.name] {
			name("metric", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
	}
}

// TestBenchmarkJSONIsCurrent fails when BENCHMARK.json is not what
// -print-spec prints.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go run ./benchmark -print-spec > BENCHMARK.json`")
	}
}

// TestSmoke runs every workload at the smoke size, traced — which
// includes the untraced reference pass, so both result forms come from
// one run — and checks that each emits exactly its mode's metrics, that
// nothing failed, outputs matched, and the span trees are well formed.
func TestSmoke(t *testing.T) {
	measured := make(map[string]bool)
	for _, ws := range workloads {
		r := newRun(ws, 7, 1, min(2, runtime.NumCPU()), true, t.TempDir(), true)
		traced, err := execute(r)
		if err != nil {
			t.Fatalf("%s: %v", ws.name, err)
		}
		spans := r.tr.snapshot()
		if len(spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", ws.name)
		}
		if _, err := checkSpans(spans); err != nil {
			t.Errorf("%s: %v", ws.name, err)
		}
		if err := writeChrome(filepath.Join(r.dir, "trace.json"), ws.name, spans); err != nil {
			t.Errorf("%s: %v", ws.name, err)
		}
		for name, m := range r.layer {
			measured[name] = measured[name] || m.Value != 0
		}
		r.tr = nil
		untraced, err := r.result()
		if err != nil {
			t.Fatalf("%s: %v", ws.name, err)
		}
		for _, c := range []struct {
			res   *result
			specs []metricSpec
		}{{untraced, endToEnd}, {traced, perLayer}} {
			if !c.res.Correct || c.res.Failed != 0 || c.res.FailFrac != 0 || c.res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", ws.name, c.res.Correct, c.res.Attempted, c.res.Failed)
			}
			if len(c.res.Metrics) != len(c.specs) {
				t.Errorf("%s: %d metrics, want %d", ws.name, len(c.res.Metrics), len(c.specs))
			}
			for _, m := range c.specs {
				got, ok := c.res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s: metric %s missing or in unit %q, want %q", ws.name, m.name, got.Unit, m.unit)
				}
				if m.bound > 0 && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", ws.name, m.name, got.Value)
				}
			}
			line, err := lastLine(c.res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: last line %s: want exactly correct, attempted, failed, metrics", ws.name, line)
			}
		}
		if traced.Metrics["output_ok"].Value != 1 || traced.Metrics["fail_frac"].Value != 0 {
			t.Errorf("%s: output_ok=%v fail_frac=%v", ws.name, traced.Metrics["output_ok"].Value, traced.Metrics["fail_frac"].Value)
		}
		if len(traced.Digests["figures"]) != 64 && len(traced.Digests["saved_results"]) != 64 {
			t.Errorf("%s: neither a figure nor a saved-results digest in the provenance", ws.name)
		}
	}
	// Every per-layer metric must be measured by some workload: a name
	// nothing reports is a dead entry in the contract. The exceptions
	// are counters that read zero on a healthy run and the cell classes
	// the smoke size has no cell of.
	mayBeZero := map[string]bool{
		"fail_frac": true, "registry.retries": true, "registry.leases_lost": true,
		"fleet.backoff_frac": true, "vtime.pingpong_hits": true,
		"core.cell_ms_r640": true, "core.cell_ms_r3072": true,
	}
	for _, m := range perLayer {
		if !measured[m.name] && !mayBeZero[m.name] {
			t.Errorf("per-layer metric %s: no workload measured it", m.name)
		}
	}
}
