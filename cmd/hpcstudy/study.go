package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/alya"
	"repro/internal/experiments"
	"repro/internal/resultdb"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// The study family: the bare `hpcstudy <study>` form plus the run,
// merge and validate verbs. All of them end in runStudy, which drives
// one built-in study (or "all"), or a scenario spec, through the sweep
// engine with whatever store the flags configure.

// figure is what every study result renders as; results that also have
// a machine-readable form implement csvFigure and honour -csv.
type figure interface{ Render(io.Writer) }

type csvFigure interface{ CSV(io.Writer) }

// emit writes a study result in the form the flags ask for.
func emit(w io.Writer, res figure, csv bool) {
	if c, ok := res.(csvFigure); ok && csv {
		c.CSV(w)
		return
	}
	res.Render(w)
	// Only fig3's table is followed by its chart here; a grid whose spec
	// asks for one (report.chart) draws it inside its own Render.
	if f3, ok := res.(*experiments.Fig3Result); ok {
		fmt.Fprintln(w)
		f3.RenderChart(w)
	}
}

// study adapts a typed experiments entry point to the studies table.
func study[R figure](f func(experiments.Options) (R, error)) func(experiments.Options) (figure, error) {
	return func(opt experiments.Options) (figure, error) { return f(opt) }
}

// studies lists every built-in experiment in "all" order.
var studies = []struct {
	name string
	run  func(experiments.Options) (figure, error)
}{
	{"solutions", study(experiments.Solutions)},
	{"fig1", study(experiments.Fig1)},
	{"fig2", study(experiments.Fig2)},
	{"fig3", study(experiments.Fig3)},
	{"portability", study(experiments.Portability)},
	{"iostudy", study(experiments.IOStudy)},
}

// -quick sweep points. Vars rather than literals so the CLI smoke test
// can shrink them further without bypassing any of the wiring.
var (
	quickFig2Nodes = []int{2, 4, 8, 16}
	quickFig3Nodes = []int{4, 8, 16, 32, 64}
)

// trimQuick applies -quick to a built-in study's options: one simulated
// step and fewer node points, same qualitative shapes. Studies it does
// not name are already laptop-sized.
func trimQuick(name string, opt *experiments.Options) {
	switch name {
	case "fig1":
		c := alya.ArteryCFDLenox()
		c.SimSteps = 1
		opt.Case = c
	case "fig2":
		c := alya.ArteryCFDCTEPower()
		c.SimSteps = 1
		opt.Case = c
		opt.NodePoints = quickFig2Nodes
	case "fig3":
		opt.NodePoints = quickFig3Nodes
	}
}

// errQuickScenario rejects -quick on a scenario spec.
const errQuickScenario = usageError("-quick trims the built-in studies; size a scenario via its spec (case.sim_steps)")

// looksLikeSpec reports whether a study argument is a scenario spec
// path rather than a built-in study name, so every study-taking verb
// ("hpcstudy merge spec.json") accepts specs without a separate flag.
func looksLikeSpec(s string) bool {
	if strings.HasSuffix(s, ".json") || strings.ContainsRune(s, os.PathSeparator) {
		return true
	}
	// Extension-less spec files are accepted, but only regular files:
	// a typo that happens to match a directory should stay an
	// "unknown study" diagnostic, not a JSON decode failure.
	info, err := os.Stat(s)
	return err == nil && info.Mode().IsRegular()
}

// runValidate compiles a spec and reports its shape without running.
func runValidate(w io.Writer, path string) error {
	st, err := scenario.Load(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: ok: %s\n", path, st.Shape())
	return nil
}

// listCells prints every compiled cell with its store key — the
// operator's view of what a spec will sweep and which fingerprints to
// look for in a registry.
func listCells(w io.Writer, st *scenario.Study) error {
	cells, keys := st.Cells(), st.Keys()
	for i := range cells {
		fmt.Fprintf(w, "%s  %s\n", keys[i], cells[i].Label)
	}
	fmt.Fprintf(w, "%s: %s\n", st.Name(), st.Shape())
	return nil
}

// verboseLines prints one study's -v lines: its counters are folded
// into the metrics registry and the classic cells / admission / store /
// kernel lines rendered back from it. store is the store's traffic over
// the study, nil without one. Anyone changing what the kernel counters
// measure must keep `go vet -vettool` with cmd/repolint green — the
// kernelsafe analyzer is what guarantees these numbers stay meaningful.
func verboseLines(w io.Writer, reg *telemetry.Registry, name string, stats *experiments.SweepStats, store *resultdb.StoreStats) {
	sample := telemetry.CellsSample{
		Simulated:        stats.Computed.Load(),
		Replayed:         stats.Hits.Load(),
		FailuresReplayed: stats.NegHits.Load(),
		Kernel:           stats.Kernel(),
		Store:            store,
	}
	sample.AdmissionRequested, sample.AdmissionAdmitted = stats.Admission()
	telemetry.RecordStudy(reg, name, sample)
	telemetry.RenderStudy(w, reg, name, experiments.RankBudget)
}

// runStudy regenerates one study (or "all"), or a scenario spec given
// by path, into w — the whole CLI behind flag parsing, so tests can
// drive it directly.
func runStudy(w io.Writer, which string, cfg cliConfig) error {
	if cfg.parallel < 0 {
		return usageError(fmt.Sprintf("-parallel must be ≥ 0 (0 = all CPUs), got %d", cfg.parallel))
	}

	// Resolve the target before touching any store: a scenario path
	// compiles here (validation errors surface with no side effects),
	// and -list needs nothing but the compiled cells.
	builtin := which == "all"
	for _, s := range studies {
		builtin = builtin || which == s.name
	}
	var spec *scenario.Study
	if !builtin || cfg.scenario {
		if !cfg.scenario && !looksLikeSpec(which) {
			return unknownStudyError(which)
		}
		if cfg.quick {
			return errQuickScenario
		}
		var err error
		if spec, err = scenario.Load(which); err != nil {
			return err
		}
		if cfg.list {
			return listCells(w, spec)
		}
	} else if cfg.list {
		return usageError("-list prints a scenario spec's cells; give the run verb a spec file")
	}

	var shard resultdb.Shard
	if cfg.shard != "" {
		if cfg.cacheDir == "" && cfg.cacheURL == "" {
			return usageError("-shard needs -cache-dir or -cache-url: shards meet in a shared result store")
		}
		if cfg.merge {
			return usageError("merge assembles from the store; it cannot be sharded")
		}
		var err error
		if shard, err = resultdb.ParseShard(cfg.shard); err != nil {
			return usageError(err.Error())
		}
	}
	if cfg.merge && cfg.cacheDir == "" && cfg.cacheURL == "" {
		return usageError("merge needs -cache-dir or -cache-url: it assembles figures from a populated store")
	}

	opt := experiments.Options{Parallelism: cfg.parallel, TraceDir: cfg.traceDir}
	if cfg.progress {
		// Progress is wall-time telemetry (rate, ETA), so it goes to
		// stderr: stdout stays the deterministic figure bytes.
		prog := telemetry.NewProgress(os.Stderr)
		opt.Progress = func(ev experiments.ProgressEvent) { prog.Event(ev.Done, ev.Total, ev.Cached) }
	}
	store, err := openStore(cfg)
	if err != nil {
		return err
	}
	if store != nil {
		defer store.Close()
		opt.Store, opt.Shard, opt.FromStore = store, shard, cfg.merge
	}
	// One metrics registry per invocation: every study's -v lines render
	// from it (RecordStudy folds each study's counts in; RenderStudy
	// prints them back), so the CLI and the scrapeable surfaces share
	// one model instead of three parallel stats structs.
	metrics := telemetry.NewRegistry()

	run := func(name string, f func(experiments.Options) (figure, error)) error {
		start := time.Now()
		// Each study counts into its own stats, so its -v lines and its
		// admission clamp are its own — an earlier study's clamp (fig3
		// under "all") is never re-attributed. The store outlives the
		// study, so its traffic is still a delta.
		stats := &experiments.SweepStats{}
		studyOpt := opt
		studyOpt.Stats = stats
		if cfg.quick {
			trimQuick(name, &studyOpt)
		}
		var st0 resultdb.StoreStats
		if opt.Store != nil {
			st0 = opt.Store.Stats()
		}
		verbose := func() {
			if !cfg.verbose {
				return
			}
			var delta *resultdb.StoreStats
			if opt.Store != nil {
				// The store's own traffic, not the sweep's view of it:
				// against a registry these are network operations, and
				// retries flag a flaky link.
				d := opt.Store.Stats().Sub(st0)
				delta = &d
			}
			verboseLines(w, metrics, name, stats, delta)
		}
		res, err := f(studyOpt)
		var miss *experiments.MissingCellsError
		if err != nil && shard.Active() && errors.As(err, &miss) {
			// A populate shard finished its slice; the rest belongs to
			// other shards and is not a failure.
			fmt.Fprintf(w, "%s: shard %s done: %d cells simulated, %d replayed, %d left to other shards\n\n",
				name, shard, stats.Computed.Load(), stats.Hits.Load(), len(miss.Cells))
			verbose()
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		emit(w, res, cfg.csv)
		verbose()
		fmt.Fprintf(w, "  (%s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if spec != nil {
		// A compiled scenario runs through the same options every
		// built-in study gets.
		return run(spec.Name(), func(opt experiments.Options) (figure, error) { return spec.Run(opt) })
	}
	for _, s := range studies {
		if which == "all" || which == s.name {
			if err := run(s.name, s.run); err != nil {
				return err
			}
		}
	}
	return nil
}
