package main

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/profile"
)

// tracedFig2 runs the quick fig2 study once with tracing and returns
// the trace directory.
func tracedFig2(t *testing.T) string {
	t.Helper()
	shrinkQuick(t)
	dir := t.TempDir()
	var sb strings.Builder
	if err := runStudy(&sb, "fig2", cliConfig{quick: true, parallel: 4, traceDir: dir}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readTree walks dir and returns every file's contents keyed by
// relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalyzeDeterministic: analyze over a traced run renders
// byte-identical stdout, CSV, and -o artifact trees across repeated
// invocations, and the real profiles satisfy the attribution
// invariant (categories sum exactly to each rank's total).
func TestAnalyzeDeterministic(t *testing.T) {
	traceDir := tracedFig2(t)
	base := cliConfig{traceDir: traceDir, top: 10}

	ps, err := profile.ReadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		for id, b := range p.PerRank {
			// Compute is defined as the residual of the wait partition, so
			// this identity is bit-exact in the engine's evaluation order.
			if res := b.Total - b.P2PWait - b.CollectiveWait; res != b.Compute {
				t.Errorf("%s rank %d: total minus waits = %v, compute %v", p.Label, id, res, b.Compute)
			}
			if b.Compute < 0 || b.P2PWait < 0 || b.CollectiveWait < 0 {
				t.Errorf("%s rank %d: negative category in %+v", p.Label, id, b)
			}
		}
	}

	var out1, out2 strings.Builder
	if err := runAnalyze(&out1, base); err != nil {
		t.Fatal(err)
	}
	if err := runAnalyze(&out2, base); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatal("analyze stdout differs between runs")
	}
	for _, want := range []string{"compute", "critical path", "makespan"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("analyze output lacks %q", want)
		}
	}

	csvCfg := base
	csvCfg.csv = true
	var csv1, csv2 strings.Builder
	if err := runAnalyze(&csv1, csvCfg); err != nil {
		t.Fatal(err)
	}
	if err := runAnalyze(&csv2, csvCfg); err != nil {
		t.Fatal(err)
	}
	if csv1.String() != csv2.String() {
		t.Fatal("analyze -csv differs between runs")
	}

	treeA, treeB := t.TempDir(), t.TempDir()
	for _, dir := range []string{treeA, treeB} {
		cfg := base
		cfg.analyzeOut = dir
		if err := runAnalyze(io.Discard, cfg); err != nil {
			t.Fatal(err)
		}
	}
	a, b := readTree(t, treeA), readTree(t, treeB)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("analyze trees differ in file count: %d vs %d", len(a), len(b))
	}
	folded := 0
	for rel, data := range a { //lint:allow maporder -- per-name comparison, no ordered output
		if !bytes.Equal(data, b[rel]) {
			t.Fatalf("analyze artifact %s differs between runs", rel)
		}
		if strings.HasPrefix(rel, "folded"+string(os.PathSeparator)) {
			folded++
		}
	}
	for _, want := range []string{"summary.txt", "attribution.csv", "phases.csv", "critical-path.txt"} {
		if _, ok := a[want]; !ok {
			t.Errorf("analyze tree lacks %s", want)
		}
	}
	if folded != len(ps) {
		t.Errorf("tree holds %d folded stacks, want one per cell (%d)", folded, len(ps))
	}
}

// TestAnalyzeDiffMode: -diff "A=B" between two real cells renders a
// deterministic report attributing the makespan delta to named phases.
func TestAnalyzeDiffMode(t *testing.T) {
	traceDir := tracedFig2(t)
	ps, err := profile.ReadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < 2 {
		t.Fatalf("only %d profiled cells", len(ps))
	}
	cfg := cliConfig{traceDir: traceDir, diffSpec: ps[0].Label + "=" + ps[len(ps)-1].Label}
	var d1, d2 strings.Builder
	if err := runAnalyze(&d1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := runAnalyze(&d2, cfg); err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Fatal("diff output differs between runs")
	}
	for _, want := range []string{ps[0].Label, ps[len(ps)-1].Label, "makespan"} {
		if !strings.Contains(d1.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, d1.String())
		}
	}
}

// TestAnalyzeUsageErrors: missing -trace, a bad -top, and an ambiguous
// -diff pattern are usage errors, not panics or empty output.
func TestAnalyzeUsageErrors(t *testing.T) {
	if err := runAnalyze(io.Discard, cliConfig{}); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Errorf("missing -trace: err = %v", err)
	}
	if err := runAnalyze(io.Discard, cliConfig{traceDir: t.TempDir(), top: -1}); err == nil || !strings.Contains(err.Error(), "-top") {
		t.Errorf("negative -top: err = %v", err)
	}
	traceDir := tracedFig2(t)
	cfg := cliConfig{traceDir: traceDir, diffSpec: "nodes=nodes"}
	if err := runAnalyze(io.Discard, cfg); err == nil || !strings.Contains(err.Error(), "match") {
		t.Errorf("ambiguous diff: err = %v", err)
	}
}
