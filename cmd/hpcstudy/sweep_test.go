package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultdb"
	"repro/internal/scenario"
)

// TestSweepUsage asserts the sweep verb's flag contracts.
func TestSweepUsage(t *testing.T) {
	var ue usageError
	if err := runSweep(io.Discard, "fig2", cliConfig{}); !errors.As(err, &ue) {
		t.Fatalf("sweep without -coordinator: %v", err)
	}
	err := runSweep(io.Discard, "fig2", cliConfig{coordinator: "http://x", cacheURL: "http://y"})
	if !errors.As(err, &ue) {
		t.Fatalf("sweep with -cache-url: %v", err)
	}
	err = runSweep(io.Discard, "fig2", cliConfig{coordinator: "http://x", shard: "1/2"})
	if !errors.As(err, &ue) {
		t.Fatalf("sweep with -shard: %v", err)
	}
	// Multi-sweep studies cannot be coordinated; the error points at
	// static sharding instead.
	err = runSweep(io.Discard, "fig3", cliConfig{coordinator: "http://x"})
	if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-shard") {
		t.Fatalf("sweep fig3: %v", err)
	}
	// A scenario spec cannot be resized by -quick.
	err = runSweep(io.Discard, "spec.json", cliConfig{coordinator: "http://x", quick: true})
	if !errors.As(err, &ue) {
		t.Fatalf("sweep spec with -quick: %v", err)
	}
	// The coordinator side: serve -sweep refuses studies it cannot
	// enumerate as one sweep.
	_, err = buildWorkQueue(io.Discard, nil, cliConfig{sweepStudy: "fig3"}, nil)
	if !errors.As(err, &ue) {
		t.Fatalf("serve -sweep fig3: %v", err)
	}
}

// TestServeRejectsNonPositiveLeaseFlags: `serve -sweep` must refuse a
// -lease-batch or -lease-ttl the queue would silently replace with its
// default, before it opens the store or a listener.
func TestServeRejectsNonPositiveLeaseFlags(t *testing.T) {
	for _, tc := range []struct {
		batch int
		ttl   time.Duration
		want  string
	}{
		{0, 30 * time.Second, "-lease-batch must be ≥ 1, got 0"},
		{-3, 30 * time.Second, "-lease-batch must be ≥ 1, got -3"},
		{4, 0, "-lease-ttl must be positive, got 0s"},
		{4, -5 * time.Second, "-lease-ttl must be positive, got -5s"},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		var out strings.Builder
		err := runServe(context.Background(), &out, cliConfig{
			cacheDir: dir, listen: "127.0.0.1:0", sweepStudy: "fig2", quick: true,
			leaseBatch: tc.batch, leaseTTL: tc.ttl,
		})
		var ue usageError
		if !errors.As(err, &ue) || err.Error() != tc.want {
			t.Errorf("batch %d ttl %v: got %v, want usageError %q", tc.batch, tc.ttl, err, tc.want)
		}
		if strings.Contains(out.String(), "listening on") {
			t.Errorf("batch %d ttl %v: a listener was opened: %s", tc.batch, tc.ttl, out.String())
		}
		if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
			t.Errorf("batch %d ttl %v: the store was opened before the flags were checked", tc.batch, tc.ttl)
		}
	}
}

// TestCoordinatedSweepCLI drives the full CLI workflow in-process:
// `serve -sweep fig2` coordinates two concurrent workers, a late
// worker finds the sweep already done, and a merge with nothing but
// the registry URL reproduces the local reference byte-identically.
func TestCoordinatedSweepCLI(t *testing.T) {
	shrinkQuick(t)
	var ref strings.Builder
	if err := runStudy(&ref, "fig2", cliConfig{quick: true, parallel: 2}); err != nil {
		t.Fatal(err)
	}

	url, stop := startServe(t, cliConfig{
		cacheDir:   filepath.Join(t.TempDir(), "central"),
		sweepStudy: "fig2",
		quick:      true,
		leaseTTL:   2 * time.Second, // heartbeat TTL/4: a blocked claim retries in 500ms, not 15s
		leaseBatch: 2,
	})
	defer stop()

	workerCfg := func(name string) cliConfig {
		return cliConfig{
			quick: true, parallel: 2,
			coordinator: url, workerName: name,
		}
	}
	var wg sync.WaitGroup
	outs := make([]strings.Builder, 2)
	errs := make([]error, 2)
	for i, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = runSweep(&outs[i], "fig2", workerCfg(name))
		}(i, name)
	}
	wg.Wait()
	var cells int
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		out := outs[i].String()
		if !strings.Contains(out, "0 failures, 0 leases lost") {
			t.Fatalf("worker %d output:\n%s", i, out)
		}
		// "N cells run" — both workers together must cover all 6.
		cells += summaryCells(t, out)
	}
	if cells != 6 {
		t.Fatalf("workers ran %d cells between them, want 6", cells)
	}

	// A late worker claims nothing: the sweep is done.
	var late strings.Builder
	if err := runSweep(&late, "fig2", workerCfg("late")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(late.String(), "0 batches, 0 cells run") {
		t.Fatalf("late worker re-ran cells:\n%s", late.String())
	}

	// Warm replay against the registry simulates nothing...
	var warm strings.Builder
	if err := runStudy(&warm, "fig2", cliConfig{quick: true, parallel: 2, verbose: true, cacheURL: url}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "fig2 cells: 0 simulated") {
		t.Fatalf("warm rerun after coordinated sweep simulated cells:\n%s", warm.String())
	}
	// ...and the merged figure matches the local reference.
	var merged strings.Builder
	if err := runStudy(&merged, "fig2", cliConfig{quick: true, parallel: 2, cacheURL: url, merge: true}); err != nil {
		t.Fatal(err)
	}
	if stripTimings(merged.String()) != stripTimings(ref.String()) {
		t.Fatalf("coordinated sweep merge differs from the local run:\n--- local ---\n%s\n--- merged ---\n%s",
			ref.String(), merged.String())
	}
}

// TestSweepWorkerHonoursRankBudget asserts a lease worker clamps its
// pool over its whole enumeration: the engine only ever sees one leased
// cell, so without the worker's own clamp `-parallel 8` would hold eight
// 12,288-rank cells against a 32,768-rank budget. The cell is committed
// up front, so the worker finds the sweep done and simulates nothing —
// the admission is decided, and reported under -v, before any lease.
func TestSweepWorkerHonoursRankBudget(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "wide.json")
	if err := os.WriteFile(spec, []byte(`{
  "name": "wide", "cluster": "MareNostrum4", "case": {"name": "artery-fsi-mn4"},
  "configs": [{"runtime": "Bare-metal"}], "grid": {"nodes": [256]}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := scenario.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Cells()[0].Ranks; got != 12288 {
		t.Fatalf("cell has %d ranks, want 12288", got)
	}
	central := filepath.Join(t.TempDir(), "central")
	store, err := resultdb.Open(central)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(st.Keys()[0], core.SavedResult{}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	url, stop := startServe(t, cliConfig{cacheDir: central, sweepStudy: spec, leaseTTL: 2 * time.Second, leaseBatch: 2})
	defer stop()
	var out strings.Builder
	if err := runSweep(&out, spec, cliConfig{parallel: 8, verbose: true, coordinator: url, workerName: "w"}); err != nil {
		t.Fatal(err)
	}
	if want := "wide admission: 2 of 8 workers admitted"; !strings.Contains(out.String(), want) {
		t.Fatalf("worker output lacks %q:\n%s", want, out.String())
	}
}

// summaryCells extracts "M cells run" from a worker summary line.
func summaryCells(t *testing.T, out string) int {
	t.Helper()
	_, rest, ok := strings.Cut(out, "done: ")
	if !ok {
		t.Fatalf("no worker summary in:\n%s", out)
	}
	var batches, cells int
	if _, err := fmt.Sscanf(rest, "%d batches, %d cells run", &batches, &cells); err != nil {
		t.Fatalf("worker summary unparsable (%v):\n%s", err, out)
	}
	return cells
}
