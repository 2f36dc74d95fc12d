package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/registry"
	"repro/internal/resultdb"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// Coordinated sweeps: `hpcstudy serve -sweep <study>` turns the
// registry into a sweep coordinator handing out leased cell batches on
// /v1/work, and `hpcstudy sweep -coordinator URL <study>` runs a
// worker that pulls batches, heartbeats in the background, and commits
// results to the same registry. Both sides enumerate the study
// themselves and compare stamps, so a worker can never simulate cells
// for a study it was not started with.

// sweepSpecs enumerates the cells of a coordinatable study: fig1,
// fig2, or a scenario spec path. The other built-ins assemble several
// sweeps with cross-cell post-processing and stay on static -shard.
func sweepSpecs(which string, cfg cliConfig) (string, []experiments.CellSpec, error) {
	var opt experiments.Options
	if cfg.quick {
		trimQuick(which, &opt)
	}
	switch which {
	case "fig1":
		return "fig1", experiments.Fig1Specs(opt), nil
	case "fig2":
		return "fig2", experiments.Fig2Specs(opt), nil
	}
	if looksLikeSpec(which) {
		if cfg.quick {
			return "", nil, errQuickScenario
		}
		st, err := scenario.Load(which)
		if err != nil {
			return "", nil, err
		}
		return st.Name(), st.Cells(), nil
	}
	return "", nil, usageError(fmt.Sprintf(
		"coordinated sweeps take fig1, fig2, or a scenario spec; %q is not one (the other studies assemble multiple sweeps — use -shard)", which))
}

// workCellsFor converts an enumeration into the coordinator's work
// units: (key, label, deployment group) per cell, the key→spec map a
// worker resolves leases against, and the enumeration stamp both
// sides must agree on.
func workCellsFor(name string, specs []experiments.CellSpec) ([]registry.WorkCell, map[string]experiments.CellSpec, string, error) {
	cells := make([]registry.WorkCell, 0, len(specs))
	byKey := make(map[string]experiments.CellSpec, len(specs))
	keys := make([]string, 0, len(specs))
	for _, sp := range specs {
		key, err := sp.Key()
		if err != nil {
			return nil, nil, "", fmt.Errorf("fingerprinting %s: %w", sp.Label, err)
		}
		cells = append(cells, registry.WorkCell{Key: key, Label: sp.Label, Group: sp.DeployGroup()})
		byKey[key] = sp
		keys = append(keys, key)
	}
	return cells, byKey, registry.WorkStamp(name, keys), nil
}

// buildWorkQueue enumerates -sweep's study against the serve store and
// builds the lease queue: cells the store already holds (successes and
// recorded failures alike) are marked done up front, so a restarted
// coordinator resumes with exactly the un-committed remainder.
func buildWorkQueue(w io.Writer, store *resultdb.DirStore, cfg cliConfig, journal *telemetry.FleetJournal) (*registry.WorkQueue, error) {
	name, specs, err := sweepSpecs(cfg.sweepStudy, cfg)
	if err != nil {
		return nil, err
	}
	cells, _, _, err := workCellsFor(name, specs)
	if err != nil {
		return nil, err
	}
	return registry.NewWorkQueue(cells, registry.QueueOptions{
		Study:     name,
		BatchSize: cfg.leaseBatch,
		LeaseTTL:  cfg.leaseTTL,
		Committed: func(key string) bool {
			_, ok, err := store.Lookup(key)
			return err == nil && ok
		},
		Logf:    lineLogf(w),
		Journal: journal,
	}), nil
}

// defaultWorkerName identifies a worker when -worker is not given.
func defaultWorkerName() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// runSweep is the worker mode: enumerate the study, dial the
// coordinator (which is also the result registry the worker commits
// to), and drain leased batches until the sweep is done. A killed
// sibling's batches come back to us via lease expiry; if we are the
// one losing leases (a coordinator outage outlasting the retry
// budget), we exit with a resumable-state message and committed work
// stays durable.
func runSweep(w io.Writer, which string, cfg cliConfig) error {
	if cfg.coordinator == "" {
		return usageError("sweep needs -coordinator URL: the registry started with `hpcstudy serve -sweep`")
	}
	if cfg.cacheURL != "" {
		return usageError("sweep commits to the coordinator itself; -cache-url does not apply")
	}
	if cfg.shard != "" {
		return usageError("sweep batches are leased by the coordinator; -shard does not apply")
	}
	name, specs, err := sweepSpecs(which, cfg)
	if err != nil {
		return err
	}
	_, byKey, stamp, err := workCellsFor(name, specs)
	if err != nil {
		return err
	}
	worker := cfg.workerName
	if worker == "" {
		worker = defaultWorkerName()
	}
	clientOpt := registry.ClientOptions{JitterKey: worker}
	if cfg.verbose {
		clientOpt.Logf = lineLogf(os.Stderr)
	}
	var journal *telemetry.FleetJournal
	if cfg.fleetlog != "" {
		if journal, err = telemetry.OpenFleetJournal(cfg.fleetlog, worker); err != nil {
			return err
		}
		defer journal.Close()
		clientOpt.Journal = journal
	}
	client, err := registry.Dial(cfg.coordinator, clientOpt)
	if err != nil {
		return err
	}
	defer client.Close()
	var store resultdb.Store = client
	if cfg.cacheDir != "" {
		local, err := resultdb.Open(cfg.cacheDir)
		if err != nil {
			return err
		}
		store = registry.NewTiered(local, client)
		defer store.Close()
	}
	requested := cfg.parallel
	if requested <= 0 {
		requested = runtime.NumCPU()
	}
	// The engine sees one leased cell per call, so the rank budget is
	// applied here, once, over everything this worker may be leased.
	stats := &experiments.SweepStats{}
	par := experiments.AdmittedWorkers(specs, requested)
	stats.NoteAdmission(requested, par)
	// Per-cell accounting shared by two consumers: -progress (the same
	// stderr rate/ETA lines the local sweep path prints) and the
	// heartbeat progress summaries the coordinator aggregates onto
	// GET /v1/status. The engine reports each leased cell as a one-cell
	// sweep, so the worker counts completions itself, against the
	// study's full cell count.
	var prog *telemetry.Progress
	if cfg.progress {
		prog = telemetry.NewProgress(os.Stderr)
	}
	var progMu sync.Mutex
	var progDone atomic.Int64
	var cellsFailed int
	var virtualSec, commSec float64
	eng := experiments.NewSweep(experiments.Options{
		Parallelism: par,
		Stats:       stats,
		Store:       store,
		TraceDir:    cfg.traceDir,
		Progress: func(ev experiments.ProgressEvent) {
			done := int(progDone.Add(1))
			if prog != nil {
				prog.Event(done, len(byKey), ev.Cached)
			}
		},
	})
	rep, err := registry.RunWorker(client, registry.WorkerOptions{
		Name:     worker,
		Stamp:    stamp,
		Parallel: par,
		Logf:     lineLogf(w),
		Journal:  journal,
		Progress: func() registry.WorkerProgress {
			progMu.Lock()
			defer progMu.Unlock()
			return registry.WorkerProgress{
				Cells:          int(progDone.Load()),
				Failures:       cellsFailed,
				Simulated:      stats.Computed.Load(),
				Replayed:       stats.Hits.Load() + stats.NegHits.Load(),
				VirtualSeconds: virtualSec,
				CommSeconds:    commSec,
			}
		},
		Run: func(wc registry.WorkCell) error {
			sp, ok := byKey[wc.Key]
			if !ok {
				return fmt.Errorf("lease names cell %s (%s) outside this worker's enumeration", wc.Key, wc.Label)
			}
			res, err := eng.RunOne(sp)
			if err != nil {
				progMu.Lock()
				cellsFailed++
				progMu.Unlock()
				return err
			}
			progMu.Lock()
			for _, end := range res.Exec.MPI.RankEnd {
				virtualSec += float64(end)
			}
			commSec += float64(res.Exec.MPI.AvgCommTime) * float64(len(res.Exec.MPI.RankEnd))
			progMu.Unlock()
			return nil
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sweep %s: worker %s done: %d batches, %d cells run (%d simulated, %d replayed), %d failures, %d leases lost\n",
		name, worker, rep.Batches, rep.Cells, stats.Computed.Load(), stats.Hits.Load()+stats.NegHits.Load(), rep.Failures, rep.LeasesLost)
	if cfg.verbose {
		st := client.Stats()
		verboseLines(w, telemetry.NewRegistry(), name, stats, &st)
	}
	return nil
}
