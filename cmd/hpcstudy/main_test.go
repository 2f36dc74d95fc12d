package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// shrinkQuick trims the -quick node points to test size and restores
// them when the test ends.
func shrinkQuick(t *testing.T) {
	t.Helper()
	f2, f3 := quickFig2Nodes, quickFig3Nodes
	quickFig2Nodes = []int{2, 4}
	quickFig3Nodes = []int{4, 8}
	t.Cleanup(func() { quickFig2Nodes, quickFig3Nodes = f2, f3 })
}

// stripTimings drops the per-study wall-clock footer, the only
// non-deterministic lines of the CLI output.
func stripTimings(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "regenerated in") || strings.Contains(line, "shard") && strings.Contains(line, "done:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// update rewrites the goldens under testdata/ instead of comparing
// against them: `go test ./cmd/hpcstudy -run TestQuickAll -update`.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (regenerate with -update only for an intended change):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestQuickAll pins the bytes of `hpcstudy -quick all` end to end.
// The figures, the scenario specs and the sharded/merged routes all
// render through one grid implementation, so comparing them with each
// other proves nothing about the bytes themselves; these goldens do.
// Both were written by `-update` at the commit before that merge
// (6159e92, four separate render paths) and must only ever be
// regenerated for an intended output change. The quick node points are
// trimmed further so the matrix stays test-sized; the code path is
// exactly the CLI's. The cold table run fills a store; the -csv run
// then assembles from it under merge, which forbids simulating — so
// the warm route is pinned too, with zero simulations by construction.
func TestQuickAll(t *testing.T) {
	shrinkQuick(t)
	cfg := cliConfig{quick: true, parallel: 4, cacheDir: filepath.Join(t.TempDir(), "cells")}

	var cold strings.Builder
	if err := runStudy(&cold, "all", cfg); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick-all.golden", stripTimings(cold.String()))

	cfg.csv, cfg.merge = true, true
	var warm strings.Builder
	if err := runStudy(&warm, "all", cfg); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick-all-csv.golden", stripTimings(warm.String()))
}

// TestQuickCSV asserts the -csv path emits machine-readable data.
func TestQuickCSV(t *testing.T) {
	shrinkQuick(t)

	var sb strings.Builder
	if err := runStudy(&sb, "fig2", cliConfig{quick: true, csv: true, parallel: 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "nodes,Bare-metal") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	if strings.Contains(out, "+--") {
		t.Fatal("csv output contains table borders")
	}
}

// TestUnknownStudy asserts a bad study name is rejected with the
// dedicated error type (the CLI exits with usage for it).
func TestUnknownStudy(t *testing.T) {
	var sb strings.Builder
	err := runStudy(&sb, "fig9", cliConfig{})
	if _, ok := err.(unknownStudyError); !ok {
		t.Fatalf("want unknownStudyError, got %v", err)
	}
}

// TestNegativeParallel asserts -parallel rejects negative values with
// a usage error instead of silently meaning "all CPUs".
func TestNegativeParallel(t *testing.T) {
	var sb strings.Builder
	err := runStudy(&sb, "fig2", cliConfig{quick: true, parallel: -3})
	var ue usageError
	if !errors.As(err, &ue) {
		t.Fatalf("want usageError, got %v", err)
	}
	if !strings.Contains(err.Error(), "-parallel") {
		t.Fatalf("error does not name the flag: %v", err)
	}
}

// TestFlagCombinations asserts the store-related flag contracts:
// -shard and merge need -cache-dir, merge cannot be sharded, and a
// malformed shard is rejected.
func TestFlagCombinations(t *testing.T) {
	cases := []cliConfig{
		{shard: "1/2"}, // -shard without -cache-dir
		{merge: true},  // merge without -cache-dir
		{shard: "1/2", merge: true, cacheDir: "x"}, // merge + shard
		{shard: "three/4", cacheDir: "x"},          // malformed shard
		{shard: "5/2", cacheDir: "x"},              // out of range
	}
	for _, cfg := range cases {
		var sb strings.Builder
		err := runStudy(&sb, "fig2", cfg)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("cfg %+v: want usageError, got %v", cfg, err)
		}
	}
}

// TestCacheWarmRerun asserts the -cache-dir workflow end to end: a
// warm rerun of a study is byte-identical to the cold run.
func TestCacheWarmRerun(t *testing.T) {
	shrinkQuick(t)
	cfg := cliConfig{quick: true, parallel: 4, cacheDir: filepath.Join(t.TempDir(), "cells")}

	var cold, warm strings.Builder
	if err := runStudy(&cold, "fig3", cfg); err != nil {
		t.Fatal(err)
	}
	if err := runStudy(&warm, "fig3", cfg); err != nil {
		t.Fatal(err)
	}
	if stripTimings(cold.String()) != stripTimings(warm.String()) {
		t.Fatalf("warm rerun differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s",
			cold.String(), warm.String())
	}
}

// TestShardMerge asserts the distributed workflow: two -shard
// invocations populating one store, then merge, reproduce the
// unsharded output byte-identically.
func TestShardMerge(t *testing.T) {
	shrinkQuick(t)
	dir := filepath.Join(t.TempDir(), "cells")

	var unsharded strings.Builder
	if err := runStudy(&unsharded, "fig2", cliConfig{quick: true, parallel: 4}); err != nil {
		t.Fatal(err)
	}

	for _, shard := range []string{"1/2", "2/2"} {
		var sb strings.Builder
		if err := runStudy(&sb, "fig2", cliConfig{quick: true, parallel: 4, cacheDir: dir, shard: shard}); err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
	}

	var merged strings.Builder
	if err := runStudy(&merged, "fig2", cliConfig{quick: true, parallel: 4, cacheDir: dir, merge: true}); err != nil {
		t.Fatal(err)
	}
	if stripTimings(merged.String()) != stripTimings(unsharded.String()) {
		t.Fatalf("merge differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			unsharded.String(), merged.String())
	}
}

// TestMergeMissing asserts merging from an empty store fails and
// names the missing cells.
func TestMergeMissing(t *testing.T) {
	shrinkQuick(t)
	var sb strings.Builder
	err := runStudy(&sb, "fig2", cliConfig{quick: true, cacheDir: filepath.Join(t.TempDir(), "empty"), merge: true})
	if err == nil {
		t.Fatal("merge from an empty store succeeded")
	}
	if !strings.Contains(err.Error(), "not in the result store") ||
		!strings.Contains(err.Error(), "fig2") {
		t.Fatalf("error does not list missing cells: %v", err)
	}
}

// TestVerboseKernelCounters asserts -v surfaces the cache and vtime
// kernel counters per study, and that the default output stays free of
// them (the golden-comparison tests depend on that).
func TestVerboseKernelCounters(t *testing.T) {
	shrinkQuick(t)

	var quiet, verbose strings.Builder
	if err := runStudy(&quiet, "fig2", cliConfig{quick: true, parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quiet.String(), "kernel:") {
		t.Fatal("default output leaks kernel counters")
	}
	if err := runStudy(&verbose, "fig2", cliConfig{quick: true, parallel: 2, verbose: true}); err != nil {
		t.Fatal(err)
	}
	out := verbose.String()
	for _, want := range []string{"fig2 cells:", "simulated", "fig2 kernel:", "switches", "heap ops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-v output missing %q:\n%s", want, out)
		}
	}
	// A cold fig2 simulates cells, so the kernel counters must be live.
	if strings.Contains(out, "kernel: 0 switches") {
		t.Fatalf("-v reports zero switches after a cold sweep:\n%s", out)
	}
}

// TestVerbosePortabilityDeterministic asserts portability's -v counters
// are a function of its cells, not of timing: three cold parallel runs
// against fresh stores print identical lines, one simulation per
// distinct cell.
func TestVerbosePortabilityDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		cfg := cliConfig{parallel: 4, verbose: true, cacheDir: filepath.Join(t.TempDir(), "cells")}
		if err := runStudy(&sb, "portability", cfg); err != nil {
			t.Fatal(err)
		}
		out := stripTimings(sb.String())
		if i == 0 {
			first = out
			if !strings.Contains(out, "portability cells: 14 simulated, 0 replayed") {
				t.Fatalf("cold run did not simulate each of the 14 cells once:\n%s", out)
			}
		} else if out != first {
			t.Fatalf("cold run %d differs from the first:\n--- first ---\n%s\n--- run %d ---\n%s", i, first, i, out)
		}
	}
}

// syncWriter is a Builder safe to share between the serve goroutine's
// log callbacks and the test's polling.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// startServe runs the serve verb on an ephemeral port and returns the
// registry URL plus a stop function that asserts a clean shutdown.
func startServe(t *testing.T, cfg cliConfig) (string, func()) {
	t.Helper()
	cfg.listen = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	logw := &syncWriter{}
	serveErr := make(chan error, 1)
	go func() { serveErr <- runServe(ctx, logw, cfg) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		out := logw.String()
		if _, rest, ok := strings.Cut(out, "listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			return "http://" + addr, func() {
				cancel()
				if err := <-serveErr; err != nil {
					t.Errorf("serve did not shut down cleanly: %v", err)
				}
			}
		}
		select {
		case err := <-serveErr:
			t.Fatalf("serve exited early: %v (log: %s)", err, logw.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never reported its address: %s", logw.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeSweepMerge is the CLI's distributed workflow: a sweep
// against `hpcstudy serve` via -cache-url renders identically to a
// local run, a warm rerun simulates zero cells, and a merge with
// nothing but the URL reproduces the figure. SIGINT-style shutdown is
// exercised through the serve context.
func TestServeSweepMerge(t *testing.T) {
	shrinkQuick(t)
	url, stop := startServe(t, cliConfig{cacheDir: filepath.Join(t.TempDir(), "central")})
	defer stop()

	var ref strings.Builder
	if err := runStudy(&ref, "fig2", cliConfig{quick: true, parallel: 2}); err != nil {
		t.Fatal(err)
	}

	var cold strings.Builder
	if err := runStudy(&cold, "fig2", cliConfig{quick: true, parallel: 2, cacheURL: url}); err != nil {
		t.Fatal(err)
	}
	if stripTimings(cold.String()) != stripTimings(ref.String()) {
		t.Fatalf("registry-backed run differs from local:\n--- local ---\n%s\n--- registry ---\n%s",
			ref.String(), cold.String())
	}

	var warm strings.Builder
	if err := runStudy(&warm, "fig2", cliConfig{quick: true, parallel: 2, verbose: true, cacheURL: url}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "fig2 cells: 0 simulated") {
		t.Fatalf("warm registry rerun simulated cells:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "fig2 store:") {
		t.Fatalf("-v output misses the store counters:\n%s", warm.String())
	}

	// merge with URL only; then the tiered configuration (scratch dir
	// + URL) for good measure.
	var merged strings.Builder
	if err := runStudy(&merged, "fig2", cliConfig{quick: true, parallel: 2, cacheURL: url, merge: true}); err != nil {
		t.Fatal(err)
	}
	if stripTimings(merged.String()) != stripTimings(ref.String()) {
		t.Fatal("merge via -cache-url differs from the local run")
	}
	var tiered strings.Builder
	err := runStudy(&tiered, "fig2", cliConfig{
		quick: true, parallel: 2, merge: true,
		cacheDir: filepath.Join(t.TempDir(), "scratch"), cacheURL: url,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stripTimings(tiered.String()) != stripTimings(ref.String()) {
		t.Fatal("tiered merge differs from the local run")
	}
}

// TestServeUsage asserts the serve verb's flag contracts.
func TestServeUsage(t *testing.T) {
	var ue usageError
	if err := runServe(context.Background(), io.Discard, cliConfig{}); !errors.As(err, &ue) {
		t.Fatalf("serve without -cache-dir: %v", err)
	}
	err := runServe(context.Background(), io.Discard, cliConfig{cacheDir: "x", cacheURL: "http://y"})
	if !errors.As(err, &ue) {
		t.Fatalf("serve with -cache-url: %v", err)
	}
	// -gc-interval without a bound would collect nothing, silently.
	err = runServe(context.Background(), io.Discard, cliConfig{cacheDir: "x", gcInterval: time.Hour})
	if !errors.As(err, &ue) {
		t.Fatalf("serve with unbounded -gc-interval: %v", err)
	}
}

// TestGCVerb asserts the gc verb: it demands a bound, reports a pass
// over fresh records without evicting them, and an aggressive size
// bound empties the store so a merge afterwards names missing cells.
func TestGCVerb(t *testing.T) {
	shrinkQuick(t)
	dir := filepath.Join(t.TempDir(), "cells")
	if err := runStudy(io.Discard, "fig2", cliConfig{quick: true, parallel: 2, cacheDir: dir}); err != nil {
		t.Fatal(err)
	}

	var ue usageError
	if err := runGC(io.Discard, cliConfig{cacheDir: dir}); !errors.As(err, &ue) {
		t.Fatal("gc without bounds accepted")
	}
	if err := runGC(io.Discard, cliConfig{maxBytes: 1}); !errors.As(err, &ue) {
		t.Fatal("gc without -cache-dir accepted")
	}

	var within strings.Builder
	if err := runGC(&within, cliConfig{cacheDir: dir, maxAge: 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(within.String(), "0 evicted") {
		t.Fatalf("in-bounds gc evicted records: %s", within.String())
	}
	// In-bounds GC must not break a later merge.
	if err := runStudy(io.Discard, "fig2", cliConfig{quick: true, cacheDir: dir, merge: true}); err != nil {
		t.Fatalf("merge after in-bounds gc: %v", err)
	}

	var aggressive strings.Builder
	if err := runGC(&aggressive, cliConfig{cacheDir: dir, maxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(aggressive.String(), " 0 evicted") {
		t.Fatalf("aggressive gc evicted nothing: %s", aggressive.String())
	}
	err := runStudy(io.Discard, "fig2", cliConfig{quick: true, cacheDir: dir, merge: true})
	if err == nil || !strings.Contains(err.Error(), "not in the result store") {
		t.Fatalf("merge after eviction: %v", err)
	}
}

// quickFig2Spec mirrors `-quick fig2` at the test's shrunk node
// points, as a scenario spec.
const quickFig2Spec = `{
  "name": "fig2",
  "title": "Fig 2: average elapsed time of artery CFD case in CTE-POWER",
  "cluster": "CTE-POWER",
  "case": {"name": "artery-cfd-ctepower", "sim_steps": 1},
  "configs": [
    {"label": "Bare-metal", "runtime": "Bare-metal"},
    {"label": "Singularity system-specific", "runtime": "Singularity", "version": "2.5.1"},
    {"label": "Singularity self-contained", "runtime": "Singularity", "version": "2.5.1", "technique": "self-contained"}
  ],
  "grid": {"nodes": [2, 4]},
  "report": {"show_fabric": true}
}`

// writeQuickSpec drops the spec into a temp file.
func writeQuickSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig2.json")
	if err := os.WriteFile(path, []byte(quickFig2Spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioMatchesBuiltinCLI is the CLI acceptance path: `hpcstudy
// run <spec>` renders byte-identically to the built-in `-quick fig2`,
// in table and CSV form, through exactly the code the binary runs.
func TestScenarioMatchesBuiltinCLI(t *testing.T) {
	shrinkQuick(t)
	spec := writeQuickSpec(t)

	var builtin, scenario strings.Builder
	if err := runStudy(&builtin, "fig2", cliConfig{quick: true, parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if err := runStudy(&scenario, spec, cliConfig{scenario: true, parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if stripTimings(builtin.String()) != stripTimings(scenario.String()) {
		t.Fatalf("scenario differs from builtin:\n--- builtin ---\n%s\n--- scenario ---\n%s",
			builtin.String(), scenario.String())
	}

	var bcsv, scsv strings.Builder
	if err := runStudy(&bcsv, "fig2", cliConfig{quick: true, csv: true, parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if err := runStudy(&scsv, spec, cliConfig{scenario: true, csv: true, parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if stripTimings(bcsv.String()) != stripTimings(scsv.String()) {
		t.Fatal("scenario CSV differs from builtin CSV")
	}
}

// TestScenarioSharesBuiltinStore asserts the two expressions of the
// figure are the same cells: the built-in study populates a store and
// the scenario replays every cell from it, simulating nothing.
func TestScenarioSharesBuiltinStore(t *testing.T) {
	shrinkQuick(t)
	spec := writeQuickSpec(t)
	dir := filepath.Join(t.TempDir(), "cells")

	if err := runStudy(io.Discard, "fig2", cliConfig{quick: true, parallel: 4, cacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	var warm strings.Builder
	if err := runStudy(&warm, spec, cliConfig{scenario: true, parallel: 4, verbose: true, cacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "fig2 cells: 0 simulated") {
		t.Fatalf("scenario did not replay the builtin's cells:\n%s", warm.String())
	}
}

// TestScenarioShardMergeRegistry drives the distributed workflow
// through scenario specs: two sharded `run` invocations against a
// live registry, then a merge with nothing but the URL, byte-identical
// to the built-in local run; the cold shard's -v store line must show
// prefetch-answered lookups (the registry was empty).
func TestScenarioShardMergeRegistry(t *testing.T) {
	shrinkQuick(t)
	spec := writeQuickSpec(t)
	url, stop := startServe(t, cliConfig{cacheDir: filepath.Join(t.TempDir(), "central")})
	defer stop()

	var ref strings.Builder
	if err := runStudy(&ref, "fig2", cliConfig{quick: true, parallel: 2}); err != nil {
		t.Fatal(err)
	}

	for _, shard := range []string{"1/2", "2/2"} {
		var sb strings.Builder
		err := runStudy(&sb, spec, cliConfig{scenario: true, parallel: 2, verbose: true, cacheURL: url, shard: shard})
		if err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
		if shard == "1/2" {
			out := sb.String()
			if !strings.Contains(out, "answered by prefetch") || strings.Contains(out, "(0 answered by prefetch)") {
				t.Fatalf("cold shard shows no prefetch-answered lookups:\n%s", out)
			}
		}
	}

	var merged strings.Builder
	if err := runStudy(&merged, spec, cliConfig{scenario: true, parallel: 2, cacheURL: url, merge: true}); err != nil {
		t.Fatal(err)
	}
	if stripTimings(merged.String()) != stripTimings(ref.String()) {
		t.Fatalf("scenario registry merge differs from builtin local run:\n--- builtin ---\n%s\n--- merged ---\n%s",
			ref.String(), merged.String())
	}
}

// TestValidateVerb asserts validate reports a good spec's shape and a
// bad spec's field path without running anything.
func TestValidateVerb(t *testing.T) {
	spec := writeQuickSpec(t)
	var sb strings.Builder
	if err := runValidate(&sb, spec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ok: 3 configs x 2 grid points = 6 cells") {
		t.Fatalf("validate summary: %s", sb.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","cluster":"Lennox","case":{"name":"quick-cfd"},"configs":[{"runtime":"Bare-metal"}],"grid":{"nodes":[1]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runValidate(io.Discard, bad)
	if err == nil || !strings.Contains(err.Error(), "cluster") || !strings.Contains(err.Error(), "Lennox") {
		t.Fatalf("validate error does not name the field: %v", err)
	}
}

// TestScenarioList asserts -list prints every compiled cell with its
// 64-hex store key, without simulating.
func TestScenarioList(t *testing.T) {
	spec := writeQuickSpec(t)
	var sb strings.Builder
	if err := runStudy(&sb, spec, cliConfig{scenario: true, list: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 { // 6 cells + shape summary
		t.Fatalf("list printed %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "fig2 Bare-metal 2 nodes") {
		t.Fatalf("list misses a cell label:\n%s", out)
	}
	key := strings.Fields(lines[0])[0]
	if len(key) != 64 {
		t.Fatalf("list key %q is not a fingerprint", key)
	}
	// -list on a built-in study name is a usage error.
	var ue usageError
	if err := runStudy(io.Discard, "fig2", cliConfig{list: true}); !errors.As(err, &ue) {
		t.Fatal("-list on a builtin study accepted")
	}
}

// TestScenarioBadPath asserts the run verb surfaces load errors as
// plain failures (exit 1), not usage.
func TestScenarioBadPath(t *testing.T) {
	err := runStudy(io.Discard, filepath.Join(t.TempDir(), "nope.json"), cliConfig{scenario: true})
	if err == nil {
		t.Fatal("missing spec ran")
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Fatalf("load failure classified as usage: %v", err)
	}

	// A typo that happens to name a directory stays an unknown-study
	// diagnostic, not a JSON decode failure.
	var se unknownStudyError
	if err := runStudy(io.Discard, ".", cliConfig{}); !errors.As(err, &se) {
		t.Fatalf("directory argument: want unknownStudyError, got %v", err)
	}
}

// TestUsageVerbHelp asserts the verb summary names every verb and
// per-verb help shows only the relevant flags.
func TestUsageVerbHelp(t *testing.T) {
	var all strings.Builder
	printUsage(&all, "")
	for _, want := range []string{"run <spec.json>", "validate <spec.json>", "merge", "serve", "gc", "help", "-cache-dir", "-quick"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("top-level usage missing %q:\n%s", want, all.String())
		}
	}

	var serve strings.Builder
	printUsage(&serve, "serve")
	if !strings.Contains(serve.String(), "-listen") {
		t.Errorf("serve help missing -listen:\n%s", serve.String())
	}
	if strings.Contains(serve.String(), "-csv") {
		t.Errorf("serve help leaks study flags:\n%s", serve.String())
	}

	var run strings.Builder
	printUsage(&run, "run")
	if !strings.Contains(run.String(), "-list") || strings.Contains(run.String(), "-listen ") {
		t.Errorf("run help flags wrong:\n%s", run.String())
	}
}

// TestScenarioRejectsQuick asserts -quick on a scenario run is a
// usage error naming the spec's own sizing knob, rather than being
// silently ignored.
func TestScenarioRejectsQuick(t *testing.T) {
	spec := writeQuickSpec(t)
	var ue usageError
	err := runStudy(io.Discard, spec, cliConfig{scenario: true, quick: true})
	if !errors.As(err, &ue) || !strings.Contains(err.Error(), "sim_steps") {
		t.Fatalf("want usageError naming sim_steps, got %v", err)
	}
}

// TestVerbArgumentOrders drives every row of the verb table through
// the command-line parser in both positions — verb first, and after
// leading flags with more flags behind it — and asserts the same verb,
// positionals and flag values come out. serve and gc used to be
// recognised only as the first argument.
func TestVerbArgumentOrders(t *testing.T) {
	saved := cliFlags
	t.Cleanup(func() { cliFlags = saved })
	for i := range verbs {
		v := &verbs[i]
		var words, positional []string
		if v.name != "" {
			words = []string{v.name}
		}
		if v.nargs != 0 { // one positional, required or optional
			positional = []string{"fig2"}
		}
		for _, argv := range [][]string{
			append(append(append([]string{}, words...), "-cache-dir", "D", "-max-age", "1h"), positional...),
			append(append(append([]string{"-cache-dir", "D"}, words...), "-max-age", "1h"), positional...),
		} {
			cliFlags = saved
			got, rest := parseCommand(argv)
			if got != v {
				t.Errorf("%q: dispatched to %q, want %q", argv, got.name, v.name)
			}
			if fmt.Sprint(rest) != fmt.Sprint(positional) {
				t.Errorf("%q: positionals %q, want %q", argv, rest, positional)
			}
			if cliFlags.cacheDir != "D" || cliFlags.maxAge != time.Hour {
				t.Errorf("%q: flags lost: -cache-dir %q -max-age %v", argv, cliFlags.cacheDir, cliFlags.maxAge)
			}
		}
	}
}
